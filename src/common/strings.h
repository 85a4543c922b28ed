/// \file strings.h
/// \brief Small string utilities shared across the codebase.

#ifndef GLUENAIL_COMMON_STRINGS_H_
#define GLUENAIL_COMMON_STRINGS_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace gluenail {

/// Concatenates the streamable arguments into one string.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream os;
  ((os << args), ...);
  return os.str();
}

/// Joins \p parts with \p sep.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True if \p s starts with \p prefix.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Splits on \p sep, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Escapes a string for quoting inside single quotes: ' -> \', \ -> \\,
/// newline -> \n, tab -> \t.
std::string EscapeQuoted(std::string_view s);

/// Inverse of EscapeQuoted.
std::string UnescapeQuoted(std::string_view s);

/// FNV-1a 64's offset basis: the hash of no bytes, and the seed every
/// checksum in the durable formats starts from.
inline constexpr uint64_t kFnv1a64Seed = 0xcbf29ce484222325ULL;

/// 64-bit FNV-1a hash, used as the base of all hashing in the storage layer.
inline uint64_t Fnv1a64(const void* data, size_t len,
                        uint64_t seed = kFnv1a64Seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Fixed-width little-endian integers, the one layout of every binary
/// durable and wire format (the WAL's header and records, the wire
/// frames and their codecs): Put appends, Decode reads from \p p.
inline void PutFixed32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(char((v >> (8 * i)) & 0xff));
}

inline void PutFixed64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(char((v >> (8 * i)) & 0xff));
}

inline uint32_t DecodeFixed32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= uint32_t(uint8_t(p[i])) << (8 * i);
  return v;
}

inline uint64_t DecodeFixed64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= uint64_t(uint8_t(p[i])) << (8 * i);
  return v;
}

/// Mixes a 64-bit value into a hash (boost::hash_combine style, 64-bit).
inline uint64_t HashCombine(uint64_t seed, uint64_t v) {
  seed ^= v + 0x9e3779b97f4a7c15ULL + (seed << 12) + (seed >> 4);
  return seed;
}

/// splitmix64's step and finalizer: every input bit reaches every output
/// bit. HashCombine over small dense TermIds leaves the low bits nearly
/// constant, so anything that indexes by low bits (RowIdTable home slots,
/// the NDV sketch's bitmap) mixes first.
inline uint64_t Mix64(uint64_t v) {
  uint64_t z = v + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace gluenail

#endif  // GLUENAIL_COMMON_STRINGS_H_
