#pragma once
// Reimplementation of the comparison baselines: Naumov, Castonguay & Cohen,
// "Parallel graph coloring with applications to the incomplete-LU
// factorization on the GPU" (NVIDIA NVR-2015-001) — the csrcolor
// state-of-the-art the paper benchmarks against (`Naumov/Color_JPL` and
// `Naumov/Color_CC`). cuSPARSE is closed source; these follow the tech
// report's algorithm descriptions.
//
// JPL (Jones-Plassmann-Luby): one independent set per iteration, selected by
// a per-iteration re-randomized hash — no random-weight array persists
// across rounds. CC (Cohen-Castonguay): several hash functions per
// iteration, each yielding a max- and a min-independent set, so up to
// 2*num_hashes colors are assigned per iteration — fewer, cheaper iterations
// at a steep quality cost (the paper measures ~5x more colors than
// GraphBLAST MIS). Both hash each live vertex once per round into a
// per-vertex buffer that its neighbors gather (DESIGN.md §3b).

#include "core/result.hpp"
#include "graph/csr.hpp"

namespace gcol::color {

using NaumovJplOptions = Options;

[[nodiscard]] Coloring naumov_jpl_color(const graph::Csr& csr,
                                        const NaumovJplOptions& options = {});

struct NaumovCcOptions : Options {
  /// Independent hash functions evaluated per iteration; each colors a max
  /// set and a min set. csrcolor's CC path burns many hash evaluations to
  /// finish in a handful of rounds; 8 reproduces its published
  /// fast-but-color-hungry character (converges in 2-4 rounds with ~3-4x
  /// the MIS color count on meshes).
  std::int32_t num_hashes = 8;
};

[[nodiscard]] Coloring naumov_cc_color(const graph::Csr& csr,
                                       const NaumovCcOptions& options = {});

}  // namespace gcol::color
