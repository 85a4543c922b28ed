/// \file term_pool.h
/// \brief Hash-consed storage for ground HiLog terms.
///
/// Glue-Nail relations contain only completely ground tuples (paper §2), so
/// every term a program ever touches is a ground term and can be interned.
/// The pool hash-conses terms: each structurally distinct term receives
/// exactly one TermId, making term equality a single integer comparison and
/// making HiLog set-name equality (paper §5.1: "a simple string-string
/// matching suffices") literally a word compare.
///
/// Following HiLog, a compound term's functor is itself an arbitrary term,
/// not just an atom: `students(cs99)` is a compound whose functor is the
/// symbol `students`, and it can in turn be the functor of
/// `students(cs99)(wilson)` or serve as a predicate *name*.
///
/// Per the paper (§2) there is no distinction between atoms and strings:
/// both are interned symbols.

#ifndef GLUENAIL_TERM_TERM_POOL_H_
#define GLUENAIL_TERM_TERM_POOL_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/chunked_vector.h"
#include "src/common/strings.h"

namespace gluenail {

/// \brief Identifier of an interned term. Equality of ids is equality of
/// terms within one pool.
using TermId = uint32_t;

/// Sentinel for "no term" (e.g. an unbound slot in a binding record).
inline constexpr TermId kNullTerm = 0xffffffffu;

/// \brief Discriminator for the four kinds of ground terms.
enum class TermTag : uint8_t {
  kInt = 0,
  kFloat = 1,
  /// An atom or string; the paper treats the two identically (§2).
  kSymbol = 2,
  /// functor(args...) where the functor is itself any term (HiLog, §5).
  kCompound = 3,
};

/// \brief Arena of interned ground terms.
///
/// Thread-safe: any number of threads may intern and read concurrently.
/// Accessors (tag, IntValue, SymbolName, Args, Compare, ToString, ...) are
/// wait-free — term records live in chunked storage that never moves, so a
/// TermId published to a thread can be dereferenced without locking.
/// Interning takes a shared lock on one of kNumShards hash shards for the
/// fast (already-interned) path and an exclusive shard lock plus a single
/// pool-wide append mutex for the slow (first-occurrence) path.
/// TermIds are only meaningful relative to the pool that produced them.
class TermPool {
 public:
  TermPool() = default;
  TermPool(const TermPool&) = delete;
  TermPool& operator=(const TermPool&) = delete;

  /// Interns an integer term.
  TermId MakeInt(int64_t value);
  /// Interns a floating-point term.
  TermId MakeFloat(double value);
  /// Interns a symbol (atom/string).
  TermId MakeSymbol(std::string_view name);
  /// Interns a compound term with an arbitrary functor term (HiLog).
  /// \p args must be non-empty; a zero-argument "compound" is its functor.
  TermId MakeCompound(TermId functor, std::span<const TermId> args);
  /// Convenience: compound with a symbol functor.
  TermId MakeCompound(std::string_view functor, std::span<const TermId> args);

  TermTag tag(TermId id) const { return terms_[id].tag; }
  bool IsInt(TermId id) const { return tag(id) == TermTag::kInt; }
  bool IsFloat(TermId id) const { return tag(id) == TermTag::kFloat; }
  bool IsSymbol(TermId id) const { return tag(id) == TermTag::kSymbol; }
  bool IsCompound(TermId id) const { return tag(id) == TermTag::kCompound; }
  bool IsNumber(TermId id) const { return IsInt(id) || IsFloat(id); }

  /// Value accessors. Preconditions: the term has the matching tag.
  int64_t IntValue(TermId id) const { return ints_[terms_[id].payload]; }
  double FloatValue(TermId id) const { return floats_[terms_[id].payload]; }
  /// Numeric value of an int or float term, widened to double.
  double NumericValue(TermId id) const {
    return IsInt(id) ? static_cast<double>(IntValue(id)) : FloatValue(id);
  }
  std::string_view SymbolName(TermId id) const {
    return symbols_[terms_[id].payload];
  }
  /// Functor of a compound term.
  TermId Functor(TermId id) const {
    return compounds_[terms_[id].payload].functor;
  }
  /// Arguments of a compound term.
  std::span<const TermId> Args(TermId id) const {
    const CompoundRec& rec = compounds_[terms_[id].payload];
    return {rec.args, rec.arity};
  }
  /// Number of arguments; 0 for non-compound terms.
  size_t Arity(TermId id) const {
    return IsCompound(id) ? compounds_[terms_[id].payload].arity : 0;
  }
  /// Nesting levels of a term: 0 for a number or symbol, and for a
  /// compound one more than the highest of its functor and arguments, so
  /// each argument list and each link of a HiLog application chain
  /// (`p(1)(2)` is 2) is one level. Recursive walks over a term (printing,
  /// Compare) go this deep.
  size_t Height(TermId id) const {
    return IsCompound(id) ? compounds_[terms_[id].payload].height : 0;
  }

  /// Total order over all terms in this pool, used by min/max aggregation
  /// over non-numeric data, by `arbitrary` (smallest term, for determinism)
  /// and by the EDB persistence writer for canonical output.
  /// Order: numbers (by value; int before float on ties) < symbols
  /// (lexicographic) < compounds (arity, then functor, then args).
  /// Returns <0, 0, >0.
  int Compare(TermId a, TermId b) const;

  /// Number of distinct interned terms.
  size_t size() const { return terms_.size(); }

  /// Renders the term in source syntax (see term_printer.cc).
  std::string ToString(TermId id) const;
  /// Appends the source rendering of \p id to \p out.
  void AppendTerm(TermId id, std::string* out) const;

 private:
  /// Tag + index into the per-kind payload vector, stored together so the
  /// hot accessors do a single chunked-vector read.
  struct TermRec {
    TermTag tag = TermTag::kInt;
    uint32_t payload = 0;
  };

  struct CompoundRec {
    /// Points into arg_arena_ chunks, whose storage is never reallocated.
    const TermId* args = nullptr;
    TermId functor = kNullTerm;
    uint32_t arity = 0;
    uint32_t height = 0;
  };
  // The height fills what was padding: a record costs no more with it.
  static_assert(sizeof(CompoundRec) <= 24);

  struct CompoundKey {
    TermId functor;
    std::span<const TermId> args;
  };
  struct CompoundKeyHash {
    size_t operator()(const CompoundKey& k) const {
      uint64_t h = HashCombine(0x9e3779b97f4a7c15ULL, k.functor);
      for (TermId a : k.args) h = HashCombine(h, a);
      return static_cast<size_t>(h);
    }
  };
  struct CompoundKeyEq {
    bool operator()(const CompoundKey& a, const CompoundKey& b) const {
      if (a.functor != b.functor || a.args.size() != b.args.size())
        return false;
      for (size_t i = 0; i < a.args.size(); ++i)
        if (a.args[i] != b.args[i]) return false;
      return true;
    }
  };

  struct StringViewHash {
    size_t operator()(std::string_view s) const {
      return static_cast<size_t>(Fnv1a64(s.data(), s.size()));
    }
  };

  /// One interning shard: a shared_mutex over one hash map. Writers hold
  /// the shard lock exclusively while (briefly) taking append_mu_; the
  /// shard lock is always acquired before append_mu_, never the reverse.
  template <typename Map>
  struct Shard {
    mutable std::shared_mutex mu;
    Map map;
  };

  static constexpr size_t kNumShards = 16;

  static size_t ShardOfInt(int64_t v) {
    return static_cast<size_t>(HashCombine(0x51ed270b0741d1abULL,
                                           static_cast<uint64_t>(v))) %
           kNumShards;
  }
  static size_t ShardOfFloat(double v);
  static size_t ShardOfString(std::string_view s) {
    return static_cast<size_t>(Fnv1a64(s.data(), s.size())) % kNumShards;
  }
  static size_t ShardOfCompound(const CompoundKey& k) {
    return CompoundKeyHash{}(k) % kNumShards;
  }

  /// Appends the term record; caller holds append_mu_.
  TermId AddTermLocked(TermTag tag, uint32_t payload);
  /// Copies \p args into the stable arena; caller holds append_mu_.
  const TermId* InternArgsLocked(std::span<const TermId> args);

  /// Immutable-once-published term storage, readable without locks.
  ChunkedVector<TermRec> terms_;
  ChunkedVector<int64_t> ints_;
  ChunkedVector<double> floats_;
  ChunkedVector<std::string> symbols_;
  ChunkedVector<CompoundRec> compounds_;

  /// Serializes all appends (terms_, payload vectors, arg_arena_) so ids
  /// and payload indexes stay consistent across kinds.
  std::mutex append_mu_;
  /// Chunked arena: chunks never move once allocated, so CompoundRec::args
  /// and the spans inside compound-shard keys stay valid forever. Guarded
  /// by append_mu_ (the outer vector may reallocate, but only the spine —
  /// published chunk storage is stable and read without locks).
  std::vector<std::vector<TermId>> arg_arena_;

  std::array<Shard<std::unordered_map<int64_t, TermId>>, kNumShards>
      int_shards_;
  std::array<Shard<std::unordered_map<double, TermId>>, kNumShards>
      float_shards_;
  /// Keys are views into symbols_ storage, which never moves.
  std::array<
      Shard<std::unordered_map<std::string_view, TermId, StringViewHash>>,
      kNumShards>
      symbol_shards_;
  std::array<Shard<std::unordered_map<CompoundKey, TermId, CompoundKeyHash,
                                      CompoundKeyEq>>,
             kNumShards>
      compound_shards_;
};

}  // namespace gluenail

#endif  // GLUENAIL_TERM_TERM_POOL_H_
