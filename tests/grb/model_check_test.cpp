// Model-checking sweep: apply long random sequences of GraphBLAS operations
// simultaneously to a grb::Vector (which switches between sparse, dense and
// bitmap representations under the hood) and to a trivially-correct
// reference model (index -> value map). After every operation the two must
// agree exactly on structure and values. This is the test that catches
// representation-conversion bugs no hand-written case thinks of. The ops
// store in place, so the sequence also aliases the output with its input
// and with its own mask.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "../testing/fixtures.hpp"
#include "core/grb_common.hpp"
#include "graph/generators/erdos_renyi.hpp"
#include "graphblas/grb.hpp"
#include "sim/rng.hpp"

namespace gcol::grb {
namespace {

using Value = std::int64_t;
using Model = std::map<Index, Value>;

/// Reference-model mask predicate (value semantics, like the default desc).
bool model_mask_allows(const Model& mask, Index i) {
  const auto it = mask.find(i);
  return it != mask.end() && it->second != 0;
}

void expect_agree(const Vector<Value>& vec, const Model& model,
                  const char* context) {
  ASSERT_EQ(vec.nvals(), static_cast<Index>(model.size())) << context;
  for (Index i = 0; i < vec.size(); ++i) {
    Value value = 0;
    const bool present = vec.extract_element(&value, i) == Info::kSuccess;
    const auto it = model.find(i);
    ASSERT_EQ(present, it != model.end())
        << context << ": presence mismatch at " << i;
    if (present) {
      ASSERT_EQ(value, it->second)
          << context << ": value mismatch at " << i;
    }
  }
}

class ModelCheckTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModelCheckTest, RandomOpSequenceAgreesWithReference) {
  constexpr Index kSize = 40;
  const sim::CounterRng rng(GetParam());
  std::uint64_t counter = 0;
  auto draw = [&](std::uint64_t bound) {
    return rng.uniform_below(counter++, bound);
  };

  Vector<Value> w(kSize), u(kSize), mask(kSize);
  Model w_model, u_model, mask_model;
  // A small random graph for vxm (pattern matrix: every A(i, j) is 1).
  const graph::Csr csr =
      graph::build_csr(graph::generate_erdos_renyi(kSize, 80, GetParam()));
  const Matrix<Value> adjacency(csr);

  // Keep u and mask in fixed random states (sparse-ish) refreshed rarely;
  // mutate w with random masked operations.
  auto refresh = [&](Vector<Value>& vec, Model& model, std::uint64_t fill) {
    vec.clear();
    model.clear();
    for (Index i = 0; i < kSize; ++i) {
      if (draw(100) < fill) {
        const auto value = static_cast<Value>(draw(5));  // zeros included
        ASSERT_EQ(vec.set_element(i, value), Info::kSuccess);
        model[i] = value;
      }
    }
  };
  refresh(u, u_model, 60);
  refresh(mask, mask_model, 50);

  for (int step = 0; step < 400; ++step) {
    const std::uint64_t op = draw(11);
    const bool use_mask = draw(2) == 0;
    Descriptor desc;
    desc.replace = draw(3) == 0;
    desc.mask_complement = use_mask && draw(3) == 0;
    desc.mask_structure = use_mask && draw(4) == 0;
    const Vector<Value>* mask_ptr = use_mask ? &mask : nullptr;
    // The model of whichever vector masks this step (w itself in some).
    const Model* mask_source = &mask_model;
    const Model w_before = w_model;
    auto mask_with_w = [&] {
      mask_ptr = &w;
      mask_source = &w_before;
    };
    auto allows = [&](Index i) {
      if (!use_mask) return !desc.mask_complement;
      const bool set = desc.mask_structure
                           ? mask_source->count(i) != 0
                           : model_mask_allows(*mask_source, i);
      return desc.mask_complement ? !set : set;
    };
    // Generic model write-back for an op whose produced entries are given
    // by `produced(i)` returning optional<Value>.
    auto model_write_back = [&](auto produced) {
      Model next;
      for (Index i = 0; i < kSize; ++i) {
        const std::optional<Value> out = produced(i);
        if (allows(i) && out.has_value()) {
          next[i] = *out;
        } else if (!desc.replace) {
          const auto it = w_model.find(i);
          if (it != w_model.end()) next[i] = it->second;
        }
      }
      w_model = std::move(next);
    };

    switch (op) {
      case 0: {  // assign scalar
        const auto value = static_cast<Value>(draw(100));
        ASSERT_EQ(assign(w, mask_ptr, value, desc), Info::kSuccess);
        model_write_back(
            [&](Index) { return std::optional<Value>(value); });
        break;
      }
      case 1: {  // apply +1 on u
        ASSERT_EQ(apply(w, mask_ptr, [](Value x) { return x + 1; }, u, desc),
                  Info::kSuccess);
        model_write_back([&](Index i) -> std::optional<Value> {
          const auto it = u_model.find(i);
          if (it == u_model.end()) return std::nullopt;
          return it->second + 1;
        });
        break;
      }
      case 2: {  // eWiseAdd(w, u)
        const Model before = w_model;
        ASSERT_EQ(eWiseAdd(w, mask_ptr, Plus{}, w, u, desc), Info::kSuccess);
        model_write_back([&](Index i) -> std::optional<Value> {
          const auto a = before.find(i);
          const auto b = u_model.find(i);
          if (a == before.end() && b == u_model.end()) return std::nullopt;
          if (a == before.end()) return b->second;
          if (b == u_model.end()) return a->second;
          return a->second + b->second;
        });
        break;
      }
      case 3: {  // eWiseMult(w, u)
        const Model before = w_model;
        ASSERT_EQ(eWiseMult(w, mask_ptr, Times{}, w, u, desc),
                  Info::kSuccess);
        model_write_back([&](Index i) -> std::optional<Value> {
          const auto a = before.find(i);
          const auto b = u_model.find(i);
          if (a == before.end() || b == u_model.end()) return std::nullopt;
          return a->second * b->second;
        });
        break;
      }
      case 4: {  // set_element
        const auto i = static_cast<Index>(draw(static_cast<std::uint64_t>(kSize)));
        const auto value = static_cast<Value>(draw(100));
        ASSERT_EQ(w.set_element(i, value), Info::kSuccess);
        w_model[i] = value;
        break;
      }
      case 5: {  // clear (occasionally)
        if (draw(4) == 0) {
          w.clear();
          w_model.clear();
        }
        break;
      }
      case 6: {  // reduce must match the model sum (read-only)
        Value total = 0;
        ASSERT_EQ(reduce(&total, plus_monoid<Value>(), w), Info::kSuccess);
        Value expected = 0;
        for (const auto& [i, value] : w_model) expected += value;
        ASSERT_EQ(total, expected) << "step " << step;
        break;
      }
      case 8: {  // vxm max-times, pull or push; input u or w itself
        desc.vxm_mode = draw(2) == 0 ? VxmMode::kPull : VxmMode::kPush;
        const bool self_input = draw(3) == 0;
        if (use_mask && draw(3) == 0) mask_with_w();
        const Model& input = self_input ? w_before : u_model;
        ASSERT_EQ(vxm(w, mask_ptr, max_times_semiring<Value>(),
                      self_input ? w : u, adjacency, desc),
                  Info::kSuccess);
        model_write_back([&](Index j) -> std::optional<Value> {
          std::optional<Value> acc;
          const auto row = static_cast<std::size_t>(j);
          for (eid_t e = csr.row_offsets[row]; e < csr.row_offsets[row + 1];
               ++e) {
            const auto it = input.find(
                static_cast<Index>(csr.col_indices[static_cast<std::size_t>(e)]));
            if (it == input.end()) continue;
            acc = std::max(
                acc.value_or(std::numeric_limits<Value>::lowest()),
                it->second);
          }
          return acc;
        });
        break;
      }
      case 9: {  // in-place apply w<mask> = f(w), the mask maybe w itself
        if (use_mask && draw(2) == 0) mask_with_w();
        // A bounded map, so repeated steps cannot overflow.
        ASSERT_EQ(
            apply(w, mask_ptr, [](Value x) { return x % 7 + 1; }, w, desc),
            Info::kSuccess);
        model_write_back([&](Index i) -> std::optional<Value> {
          const auto it = w_before.find(i);
          if (it == w_before.end()) return std::nullopt;
          return it->second % 7 + 1;
        });
        break;
      }
      case 10: {  // assign with w as its own mask (when masked at all)
        if (use_mask) mask_with_w();
        const auto value = static_cast<Value>(draw(3));  // zeros included
        ASSERT_EQ(assign(w, mask_ptr, value, desc), Info::kSuccess);
        model_write_back(
            [&](Index) { return std::optional<Value>(value); });
        break;
      }
      default: {  // densify with a random fill
        const auto fill = static_cast<Value>(draw(10));
        w.densify(fill);
        for (Index i = 0; i < kSize; ++i) {
          if (w_model.find(i) == w_model.end()) w_model[i] = fill;
        }
        break;
      }
    }
    expect_agree(w, w_model, ("after step " + std::to_string(step)).c_str());
  }
}

// ---- Deferred chains --------------------------------------------------------

/// Builds random chains of 1-3 deferred ops and checks each one three ways:
/// consumed deferred, consumed after eager materialization of every link,
/// and against the reference model.
class ChainCheck {
 public:
  static constexpr Index kSize = 40;
  static constexpr int kMaxDepth = 3;

  explicit ChainCheck(std::uint64_t seed)
      : rng_(seed),
        csr_(graph::build_csr(graph::generate_erdos_renyi(kSize, 80, seed))),
        adjacency_(csr_) {}

  std::uint64_t draw(std::uint64_t bound) {
    return rng_.uniform_below(counter_++, bound);
  }

  /// A random vector (zeros included) in dense, bitmap or sparse storage.
  std::pair<Vector<Value>, Model> operand() {
    Vector<Value> vec(kSize);
    Model model;
    const std::uint64_t fill = 30 + draw(60);
    for (Index i = 0; i < kSize; ++i) {
      if (draw(100) < fill) model[i] = static_cast<Value>(draw(5));
    }
    const std::uint64_t storage = draw(3);
    if (storage == 0) {  // dense: every position holds an entry
      for (Index i = 0; i < kSize; ++i) model.try_emplace(i, Value{0});
    }
    std::vector<Value> values(static_cast<std::size_t>(kSize), 0);
    std::vector<std::uint8_t> present(static_cast<std::size_t>(kSize), 0);
    for (const auto& [i, value] : model) {
      values[static_cast<std::size_t>(i)] = value;
      present[static_cast<std::size_t>(i)] = 1;
    }
    if (storage == 0) {
      vec.adopt_dense(std::move(values));
    } else if (storage == 1) {
      vec.adopt_bitmap(std::move(values), std::move(present),
                       static_cast<Index>(model.size()));
    } else {
      for (const auto& [i, value] : model) vec.set_element(i, value);
    }
    return {std::move(vec), std::move(model)};
  }

  /// A random mask and descriptor, and the model's view of what it allows.
  struct Masking {
    std::pair<Vector<Value>, Model> mask;
    Descriptor desc;
    bool allows(Index i) const {
      const bool set = desc.mask_structure
                           ? mask.second.count(i) != 0
                           : model_mask_allows(mask.second, i);
      return desc.mask_complement ? !set : set;
    }
  };
  Masking masking() {
    Masking m{operand(), Descriptor{}};
    m.desc.mask_complement = draw(3) == 0;
    m.desc.mask_structure = draw(3) == 0;
    m.desc.replace = draw(2) == 0;
    return m;
  }

  /// Extends `expr` (whose eager twin is `eager`, model `model`) by one
  /// random op, or stops and checks the chain's consumers.
  template <int Depth, typename Expr>
  void extend(Expr&& expr, const Vector<Value>& eager, const Model& model) {
    if constexpr (Depth == 0) {
      step<Depth>(std::forward<Expr>(expr), eager, model);
    } else {
      if constexpr (Depth < kMaxDepth) {
        if (draw(3) != 0) {
          step<Depth>(std::forward<Expr>(expr), eager, model);
          return;
        }
      }
      consume(expr, eager, model);
    }
  }

 private:
  template <int Depth, typename Expr>
  void step(Expr&& expr, const Vector<Value>& eager, const Model& model) {
    Vector<Value> next(kSize);
    Model next_model;
    switch (draw(4)) {
      case 0: {  // masked pull vxm (max-times) reading the chain
        const Masking m = masking();
        Descriptor desc = m.desc;
        desc.replace = true;
        ASSERT_EQ(vxm(next, &m.mask.first, max_times_semiring<Value>(),
                      eager, adjacency_, desc),
                  Info::kSuccess);
        for (Index j = 0; j < kSize; ++j) {
          if (!m.allows(j)) continue;
          const auto row = static_cast<std::size_t>(j);
          for (eid_t e = csr_.row_offsets[row]; e < csr_.row_offsets[row + 1];
               ++e) {
            const auto it = model.find(static_cast<Index>(
                csr_.col_indices[static_cast<std::size_t>(e)]));
            if (it == model.end()) continue;
            const auto [slot, fresh] = next_model.try_emplace(j, it->second);
            if (!fresh) slot->second = std::max(slot->second, it->second);
          }
        }
        extend<Depth + 1>(deferred::vxm(&m.mask.first,
                                        max_times_semiring<Value>(), expr,
                                        adjacency_, m.desc),
                          next, next_model);
        return;
      }
      case 1: {  // eWiseAdd(chain, v)
        const auto v = operand();
        ASSERT_EQ(eWiseAdd(next, nullptr, Plus{}, eager, v.first),
                  Info::kSuccess);
        next_model = v.second;
        for (const auto& [i, value] : model) next_model[i] += value;
        extend<Depth + 1>(
            deferred::eWiseAdd(Plus{}, std::forward<Expr>(expr), v.first),
            next, next_model);
        return;
      }
      case 2: {  // eWiseMult(v, chain)
        const auto v = operand();
        ASSERT_EQ(eWiseMult(next, nullptr, Times{}, v.first, eager),
                  Info::kSuccess);
        for (const auto& [i, value] : model) {
          const auto it = v.second.find(i);
          if (it != v.second.end()) next_model[i] = it->second * value;
        }
        extend<Depth + 1>(
            deferred::eWiseMult(Times{}, v.first, std::forward<Expr>(expr)),
            next, next_model);
        return;
      }
      default: {  // apply, bounded so chains cannot overflow
        const auto f = [](Value x) { return x % 7 + 1; };
        ASSERT_EQ(apply(next, nullptr, f, eager), Info::kSuccess);
        for (const auto& [i, value] : model) next_model[i] = f(value);
        extend<Depth + 1>(deferred::apply(f, expr), next, next_model);
        return;
      }
    }
  }

  /// store under a random mask/replace into a random w, and mirror_count;
  /// each deferred against its eager twin and the model.
  template <typename Expr>
  void consume(const Expr& expr, const Vector<Value>& eager,
               const Model& model) {
    expect_agree(eager, model, "eager chain");
    const Masking m = masking();
    auto [w, w_model] = operand();
    Vector<Value> w_eager = w;
    ASSERT_EQ(store(w, &m.mask.first, expr, m.desc), Info::kSuccess);
    ASSERT_EQ(apply(w_eager, &m.mask.first, [](Value x) { return x; }, eager,
                    m.desc),
              Info::kSuccess);
    Model next;
    for (Index i = 0; i < kSize; ++i) {
      const auto it = model.find(i);
      const auto old = w_model.find(i);
      if (m.allows(i) && it != model.end()) {
        next[i] = it->second;
      } else if (!m.desc.replace && old != w_model.end()) {
        next[i] = old->second;
      }
    }
    expect_agree(w, next, "deferred store");
    expect_agree(w_eager, next, "eager store");

    auto& device = sim::Device::instance();
    Vector<std::uint8_t> active(kSize), active_eager(kSize);
    const std::int64_t count =
        color::detail::mirror_count(device, "test::mirror", expr, active);
    EXPECT_EQ(count, color::detail::mirror_count(device, "test::mirror",
                                                 eager, active_eager));
    std::int64_t expected = 0;
    for (Index i = 0; i < kSize; ++i) {
      const auto it = model.find(i);
      const bool set = it != model.end() && it->second != 0;
      expected += set ? 1 : 0;
      std::uint8_t byte = 0;
      ASSERT_EQ(active.extract_element(&byte, i), Info::kSuccess);
      EXPECT_EQ(byte, set ? 1 : 0) << "deferred mirror at " << i;
      ASSERT_EQ(active_eager.extract_element(&byte, i), Info::kSuccess);
      EXPECT_EQ(byte, set ? 1 : 0) << "eager mirror at " << i;
    }
    EXPECT_EQ(count, expected);
  }

  const sim::CounterRng rng_;
  std::uint64_t counter_ = 0;
  const graph::Csr csr_;
  const Matrix<Value> adjacency_;
};

TEST_P(ModelCheckTest, DeferredChainsAgreeWithEagerAndReference) {
  ChainCheck check(GetParam());
  for (int chain = 0; chain < 150; ++chain) {
    const auto leaf = check.operand();
    check.extend<0>(leaf.first, leaf.first, leaf.second);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelCheckTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& p) {
                           return "Seed" + std::to_string(p.param);
                         });

}  // namespace
}  // namespace gcol::grb
