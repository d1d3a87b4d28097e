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

#include "../testing/fixtures.hpp"
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

INSTANTIATE_TEST_SUITE_P(Seeds, ModelCheckTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& p) {
                           return "Seed" + std::to_string(p.param);
                         });

}  // namespace
}  // namespace gcol::grb
