#pragma once
// Descriptor: per-call modifiers, following the GraphBLAS C API's GrB_Descriptor.
// The paper's algorithms pass `desc` to every call; masking behaviour
// (§III-A1) is controlled here.

namespace gcol::grb {

/// How vxm traverses the matrix. GraphBLAST picks push (iterate the sparse
/// input vector, scatter) or pull (iterate output rows, gather) from input
/// sparsity [Yang et al., ICPP 2018]; kAuto reproduces that heuristic and
/// the explicit values pin it for ablation benches.
enum class VxmMode { kAuto, kPush, kPull };

struct Descriptor {
  /// Use only the mask's structure (entry present == writable) rather than
  /// its values (entry present and value != 0).
  bool mask_structure = false;
  /// Complement the mask: positions NOT set by the mask become writable.
  bool mask_complement = false;
  /// Clear the output's previous entries before writing (GrB_REPLACE).
  bool replace = false;
  VxmMode vxm_mode = VxmMode::kAuto;
};

inline constexpr Descriptor kDefaultDesc{};

}  // namespace gcol::grb
