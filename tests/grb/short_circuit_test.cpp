// The select short circuit: in eWiseAdd(GT, u, vxm<mask>(max, v, A)), a row
// where u has an entry x may stop its max reduction at the first neighbor
// reaching x, because GT is then 0 whatever the rest of the row holds
// (grb::detail::EwiseEval). Each case below consumes the deferred chain
// twice (grb::store and mirror_count) and checks it against the eager ops,
// which reduce every row in full, and against a reference model, over every
// storage of u and of the mask, every mask kind, equal, negative and extreme
// values, neighborless rows, and positions where u has no entry (the union
// path, which must take the full max).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/grb_common.hpp"
#include "graph/build.hpp"
#include "graph/generators/erdos_renyi.hpp"
#include "graphblas/grb.hpp"
#include "sim/rng.hpp"

namespace gcol::grb {
namespace {

using Value = std::int64_t;
using Model = std::map<Index, Value>;

enum class Store { kDense, kBitmap, kSparse };
constexpr Store kStores[] = {Store::kDense, Store::kBitmap, Store::kSparse};

/// A vector of the given storage holding exactly `model`; dense storage
/// first gives every missing position `fill`.
Vector<Value> make_vector(Index n, Model& model, Store storage, Value fill) {
  Vector<Value> vec(n);
  if (storage == Store::kDense) {
    for (Index i = 0; i < n; ++i) model.try_emplace(i, fill);
  }
  std::vector<Value> values(static_cast<std::size_t>(n), 0);
  std::vector<std::uint8_t> present(static_cast<std::size_t>(n), 0);
  for (const auto& [i, value] : model) {
    values[static_cast<std::size_t>(i)] = value;
    present[static_cast<std::size_t>(i)] = 1;
  }
  switch (storage) {
    case Store::kDense: vec.adopt_dense(std::move(values)); break;
    case Store::kBitmap:
      vec.adopt_bitmap(std::move(values), std::move(present),
                       static_cast<Index>(model.size()));
      break;
    case Store::kSparse:
      for (const auto& [i, value] : model) vec.set_element(i, value);
      break;
  }
  return vec;
}

struct MaskKind {
  const char* name;
  bool has_mask;
  bool structure;
  bool complement;
};
constexpr MaskKind kMaskKinds[] = {
    {"none", false, false, false},
    {"value", true, false, false},
    {"structure", true, true, false},
    {"complemented value", true, false, true},
    {"complemented structure", true, true, true},
};

class ShortCircuitTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static constexpr Index kSize = 48;

  ShortCircuitTest()
      : rng_(GetParam()),
        // Sparse enough to leave neighborless rows.
        csr_(graph::build_csr(
            graph::generate_erdos_renyi(kSize, 40, GetParam()))),
        a_(csr_) {}

  std::uint64_t draw(std::uint64_t bound) {
    return rng_.uniform_below(counter_++, bound);
  }

  /// A random entry set: small values in [-3, 3] so equal weights and
  /// negatives are common, with an occasional extreme.
  Model entries(std::uint64_t fill_percent) {
    Model model;
    for (Index i = 0; i < kSize; ++i) {
      if (draw(100) >= fill_percent) continue;
      const std::uint64_t pick = draw(20);
      model[i] = pick == 0   ? std::numeric_limits<Value>::lowest()
                 : pick == 1 ? std::numeric_limits<Value>::max()
                             : static_cast<Value>(draw(7)) - 3;
    }
    return model;
  }

  /// The reference model of eWiseAdd(GT, u, vxm<mask>(max, v, A)).
  Model reference(const Model& u, const Model& v, const Model& mask,
                  const MaskKind& kind) const {
    Model out;
    for (Index j = 0; j < kSize; ++j) {
      bool allowed = !kind.complement;
      if (kind.has_mask) {
        const auto it = mask.find(j);
        const bool set =
            it != mask.end() && (kind.structure || it->second != 0);
        allowed = kind.complement ? !set : set;
      }
      std::optional<Value> max;
      const auto row = static_cast<std::size_t>(j);
      for (eid_t e = csr_.row_offsets[row];
           allowed && e < csr_.row_offsets[row + 1]; ++e) {
        const auto it = v.find(static_cast<Index>(
            csr_.col_indices[static_cast<std::size_t>(e)]));
        if (it != v.end()) max = std::max(max.value_or(it->second), it->second);
      }
      const auto x = u.find(j);
      if (x != u.end() && max) {
        out[j] = x->second > *max ? 1 : 0;
      } else if (x != u.end()) {
        out[j] = x->second;
      } else if (max) {
        out[j] = *max;
      }
    }
    return out;
  }

  void expect_agree(const Vector<Value>& vec, const Model& model,
                    const std::string& context) const {
    ASSERT_EQ(vec.nvals(), static_cast<Index>(model.size())) << context;
    for (Index i = 0; i < kSize; ++i) {
      Value value = 0;
      const bool present = vec.extract_element(&value, i) == Info::kSuccess;
      const auto it = model.find(i);
      ASSERT_EQ(present, it != model.end()) << context << " at " << i;
      if (present) {
        EXPECT_EQ(value, it->second) << context << " at " << i;
      }
    }
  }

  /// Runs one case: u, the pull's operand (u itself when `v` is null) and
  /// the mask in the given storages.
  void check(Store u_store, const Model* v_model_in, Store v_store,
             Store mask_store, const MaskKind& kind) {
    Model u_model = entries(70);
    Vector<Value> u = make_vector(kSize, u_model, u_store, Value{0});
    Model v_model = v_model_in != nullptr ? *v_model_in : Model{};
    std::optional<Vector<Value>> v_owned;
    if (v_model_in != nullptr) {
      v_owned.emplace(make_vector(kSize, v_model, v_store, Value{-1}));
    }
    const Vector<Value>& v = v_owned ? *v_owned : u;
    if (v_model_in == nullptr) v_model = u_model;
    Model mask_model = entries(60);
    Vector<Value> mask = make_vector(kSize, mask_model, mask_store, Value{1});
    Descriptor desc;
    desc.mask_structure = kind.structure;
    desc.mask_complement = kind.complement;
    const Vector<Value>* mask_ptr = kind.has_mask ? &mask : nullptr;
    const Model expected = reference(u_model, v_model, mask_model, kind);
    const std::string context =
        std::string("mask ") + kind.name + ", u storage " +
        std::to_string(static_cast<int>(u_store)) + ", mask storage " +
        std::to_string(static_cast<int>(mask_store)) +
        (v_owned ? ", separate pull operand" : ", pull over u");

    // Eager: each op materialized, every row reduced in full.
    Descriptor pull_desc = desc;
    pull_desc.replace = true;
    pull_desc.vxm_mode = VxmMode::kPull;
    Vector<Value> nbr_max(kSize), eager(kSize);
    ASSERT_EQ(vxm(nbr_max, mask_ptr, max_times_semiring<Value>(), v, a_,
                  pull_desc),
              Info::kSuccess);
    ASSERT_EQ(eWiseAdd(eager, nullptr, Greater{}, u, nbr_max),
              Info::kSuccess);
    expect_agree(eager, expected, "eager, " + context);

    // Deferred: one launch, short-circuited where u has an entry.
    const auto chain = deferred::eWiseAdd(
        Greater{}, u,
        deferred::vxm(mask_ptr, max_times_semiring<Value>(), v, a_, desc));
    Vector<Value> stored(kSize);
    ASSERT_EQ(store(stored, static_cast<const Vector<Value>*>(nullptr), chain),
              Info::kSuccess);
    expect_agree(stored, expected, "deferred store, " + context);

    Vector<std::uint8_t> active(kSize);
    const std::int64_t count = color::detail::mirror_count(
        sim::Device::instance(), "test::short_circuit", chain, active);
    std::int64_t expected_count = 0;
    for (Index i = 0; i < kSize; ++i) {
      const auto it = expected.find(i);
      const bool set = it != expected.end() && it->second != 0;
      expected_count += set ? 1 : 0;
      std::uint8_t byte = 0;
      ASSERT_EQ(active.extract_element(&byte, i), Info::kSuccess);
      EXPECT_EQ(byte, set ? 1 : 0) << "mirror, " << context << " at " << i;
    }
    EXPECT_EQ(count, expected_count) << context;
  }

  const sim::CounterRng rng_;
  std::uint64_t counter_ = 0;
  const graph::Csr csr_;
  const Matrix<Value> a_;
};

TEST_P(ShortCircuitTest, InputHasNeighborlessRows) {
  bool isolated = false;
  for (std::size_t j = 0; j + 1 < csr_.row_offsets.size(); ++j) {
    isolated = isolated || csr_.row_offsets[j] == csr_.row_offsets[j + 1];
  }
  EXPECT_TRUE(isolated);
}

TEST_P(ShortCircuitTest, SelectOverItsOwnWeightsAgrees) {
  for (const MaskKind& kind : kMaskKinds) {
    for (const Store u_store : kStores) {
      for (const Store mask_store : kStores) {
        check(u_store, nullptr, u_store, mask_store, kind);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST_P(ShortCircuitTest, SelectOverAnotherOperandAgrees) {
  // u and the pull's operand differ, so u lacks entries where the pull has
  // them (the union path) and has some where the row has no neighbor entry.
  for (const MaskKind& kind : kMaskKinds) {
    for (const Store u_store : kStores) {
      for (const Store v_store : kStores) {
        const Model v_model = entries(50);
        check(u_store, &v_model, v_store, Store::kDense, kind);
        check(u_store, &v_model, v_store, Store::kBitmap, kind);
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST_P(ShortCircuitTest, DenseWeightsWithColoredVertices) {
  // The colorers' own shape: dense weights, 0 for colored vertices, as
  // their own value mask; ties between live weights included.
  Model u_model;
  for (Index i = 0; i < kSize; ++i) {
    u_model[i] = draw(3) == 0 ? 0 : static_cast<Value>(draw(5)) + 1;
  }
  const Vector<Value> u = make_vector(kSize, u_model, Store::kDense, 0);
  const Model expected =
      reference(u_model, u_model, u_model, kMaskKinds[1]);
  const auto chain = deferred::eWiseAdd(
      Greater{}, u, deferred::vxm(&u, max_times_semiring<Value>(), u, a_));
  Vector<Value> stored(kSize);
  ASSERT_EQ(store(stored, static_cast<const Vector<Value>*>(nullptr), chain),
            Info::kSuccess);
  expect_agree(stored, expected, "deferred store");
  Vector<std::uint8_t> active(kSize);
  const std::int64_t count = color::detail::mirror_count(
      sim::Device::instance(), "test::short_circuit", chain, active);
  std::int64_t winners = 0;
  for (Index i = 0; i < kSize; ++i) {
    const bool live = u_model[i] != 0;
    bool wins = live;
    const auto row = static_cast<std::size_t>(i);
    for (eid_t e = csr_.row_offsets[row]; e < csr_.row_offsets[row + 1]; ++e) {
      wins = wins && u_model[static_cast<Index>(csr_.col_indices[
                         static_cast<std::size_t>(e)])] < u_model[i];
    }
    winners += wins ? 1 : 0;
    std::uint8_t byte = 0;
    ASSERT_EQ(active.extract_element(&byte, i), Info::kSuccess);
    EXPECT_EQ(byte, wins ? 1 : 0) << "at " << i;
  }
  EXPECT_EQ(count, winners);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShortCircuitTest,
                         ::testing::Values(1u, 2u, 3u, 4u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& p) {
                           return "Seed" + std::to_string(p.param);
                         });

// The rule applies to GT with u on the left over a max pull only.
template <typename Chain>
constexpr bool kBounded =
    decltype(std::declval<const Chain&>().evaluator())::kBounded;

TEST(ShortCircuitRule, AppliesOnlyToGreaterOverAMaxPull) {
  const graph::Csr csr =
      graph::build_csr(graph::generate_erdos_renyi(8, 10, 1));
  const Matrix<Value> a(csr);
  Vector<Value> u(8);
  u.fill(1);
  const auto max_pull = [&] {
    return deferred::vxm(&u, max_times_semiring<Value>(), u, a);
  };
  static_assert(kBounded<decltype(deferred::eWiseAdd(Greater{}, u,
                                                     max_pull()))>);
  static_assert(kBounded<decltype(deferred::eWiseMult(Greater{}, u,
                                                      max_pull()))>);
  static_assert(!kBounded<decltype(deferred::eWiseAdd(Greater{}, max_pull(),
                                                      u))>);
  static_assert(!kBounded<decltype(deferred::eWiseAdd(Plus{}, u,
                                                      max_pull()))>);
  static_assert(!kBounded<decltype(deferred::eWiseAdd(
                    Greater{}, u,
                    deferred::vxm(&u, boolean_semiring<Value>(), u, a)))>);
  static_assert(!kBounded<decltype(deferred::eWiseAdd(Greater{}, u, u))>);
  SUCCEED();
}

}  // namespace
}  // namespace gcol::grb
