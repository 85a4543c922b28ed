#include "src/term/term_pool.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace gluenail {

namespace {
constexpr size_t kArenaChunkTerms = 4096;
}  // namespace

size_t TermPool::ShardOfFloat(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return static_cast<size_t>(HashCombine(0xc2b2ae3d27d4eb4fULL, bits)) %
         kNumShards;
}

TermId TermPool::AddTermLocked(TermTag tag, uint32_t payload) {
  return static_cast<TermId>(terms_.Append(TermRec{tag, payload}));
}

TermId TermPool::MakeInt(int64_t value) {
  auto& shard = int_shards_[ShardOfInt(value)];
  {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    auto it = shard.map.find(value);
    if (it != shard.map.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.map.find(value);
  if (it != shard.map.end()) return it->second;
  TermId id;
  {
    std::lock_guard<std::mutex> append(append_mu_);
    uint32_t payload = static_cast<uint32_t>(ints_.Append(value));
    id = AddTermLocked(TermTag::kInt, payload);
  }
  shard.map.emplace(value, id);
  return id;
}

TermId TermPool::MakeFloat(double value) {
  auto& shard = float_shards_[ShardOfFloat(value)];
  {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    auto it = shard.map.find(value);
    if (it != shard.map.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.map.find(value);
  if (it != shard.map.end()) return it->second;
  TermId id;
  {
    std::lock_guard<std::mutex> append(append_mu_);
    uint32_t payload = static_cast<uint32_t>(floats_.Append(value));
    id = AddTermLocked(TermTag::kFloat, payload);
  }
  shard.map.emplace(value, id);
  return id;
}

TermId TermPool::MakeSymbol(std::string_view name) {
  auto& shard = symbol_shards_[ShardOfString(name)];
  {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    auto it = shard.map.find(name);
    if (it != shard.map.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.map.find(name);
  if (it != shard.map.end()) return it->second;
  TermId id;
  std::string_view stable;
  {
    std::lock_guard<std::mutex> append(append_mu_);
    uint32_t payload =
        static_cast<uint32_t>(symbols_.Append(std::string(name)));
    stable = symbols_[payload];
    id = AddTermLocked(TermTag::kSymbol, payload);
  }
  shard.map.emplace(stable, id);
  return id;
}

const TermId* TermPool::InternArgsLocked(std::span<const TermId> args) {
  if (arg_arena_.empty() ||
      arg_arena_.back().size() + args.size() > arg_arena_.back().capacity()) {
    arg_arena_.emplace_back();
    arg_arena_.back().reserve(std::max(kArenaChunkTerms, args.size()));
  }
  std::vector<TermId>& chunk = arg_arena_.back();
  const TermId* out = chunk.data() + chunk.size();
  chunk.insert(chunk.end(), args.begin(), args.end());
  return out;
}

TermId TermPool::MakeCompound(TermId functor, std::span<const TermId> args) {
  assert(!args.empty() && "a compound term needs at least one argument");
  CompoundKey probe{functor, args};
  auto& shard = compound_shards_[ShardOfCompound(probe)];
  {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    auto it = shard.map.find(probe);
    if (it != shard.map.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.map.find(probe);
  if (it != shard.map.end()) return it->second;
  size_t below = Height(functor);
  for (TermId a : args) below = std::max(below, Height(a));
  TermId id;
  const TermId* stable;
  {
    std::lock_guard<std::mutex> append(append_mu_);
    stable = InternArgsLocked(args);
    uint32_t payload = static_cast<uint32_t>(compounds_.Append(
        CompoundRec{stable, functor, static_cast<uint32_t>(args.size()),
                    static_cast<uint32_t>(below + 1)}));
    id = AddTermLocked(TermTag::kCompound, payload);
  }
  shard.map.emplace(CompoundKey{functor, {stable, args.size()}}, id);
  return id;
}

TermId TermPool::MakeCompound(std::string_view functor,
                              std::span<const TermId> args) {
  return MakeCompound(MakeSymbol(functor), args);
}

int TermPool::Compare(TermId a, TermId b) const {
  if (a == b) return 0;
  auto rank = [](TermTag t) {
    // Numbers sort together regardless of int/float tag.
    switch (t) {
      case TermTag::kInt:
      case TermTag::kFloat:
        return 0;
      case TermTag::kSymbol:
        return 1;
      case TermTag::kCompound:
        return 2;
    }
    return 3;
  };
  int ra = rank(tag(a)), rb = rank(tag(b));
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (ra) {
    case 0: {
      double va = NumericValue(a), vb = NumericValue(b);
      if (va < vb) return -1;
      if (va > vb) return 1;
      // Same numeric value: int sorts before float (e.g. 1 < 1.0).
      int ta = IsFloat(a) ? 1 : 0, tb = IsFloat(b) ? 1 : 0;
      return ta - tb;
    }
    case 1: {
      int c = SymbolName(a).compare(SymbolName(b));
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    default: {
      size_t aa = Arity(a), ab = Arity(b);
      if (aa != ab) return aa < ab ? -1 : 1;
      int c = Compare(Functor(a), Functor(b));
      if (c != 0) return c;
      std::span<const TermId> xa = Args(a), xb = Args(b);
      for (size_t i = 0; i < aa; ++i) {
        c = Compare(xa[i], xb[i]);
        if (c != 0) return c;
      }
      return 0;
    }
  }
}

}  // namespace gluenail
