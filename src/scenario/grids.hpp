// Data of scenario cases: initial conditions and the material/geometry
// auxiliary field a CaseSpec names symbolically, as row sources the
// solver fills its own grids from (level0, aux_source) and as grids
// (make_initial, make_aux) built from the same rows.
//
// Deliberately deterministic functions of the spec alone (no RNG, no
// host state), so a scenario file pins its inputs bit-for-bit — the
// property the engine's bit-identity guarantee rests on.
#pragma once

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/grid_source.hpp"
#include "scenario/scenario_config.hpp"

namespace tb::scenario {

/// The effective geometry kind after resolving "auto": varcoef gets the
/// slab material, the lbm operators their built-in cavity (no aux
/// grid), everything else runs bare.
[[nodiscard]] inline std::string resolve_geometry(const CaseSpec& spec) {
  if (spec.geometry != "auto") return spec.geometry;
  if (spec.op == "varcoef") return "slab";
  return "none";
}

/// Level-0 data per CaseSpec::initial, as a row source the solver
/// evaluates on its own team (no input grid is built):
///   pattern  — the deterministic test pattern every solver test uses
///   uniform  — all ones (LBM: uniform density rho = 1)
///   hot-face — zero bulk with a unit x = 0 face (the heat examples'
///              Dirichlet drive)
[[nodiscard]] inline core::GridSource level0(const CaseSpec& spec) {
  const int nx = spec.nx;
  if (spec.initial == "pattern")
    return core::test_pattern_source(nx, spec.ny, spec.nz);
  if (spec.initial == "uniform")
    return {nx, spec.ny, spec.nz,
            [nx](int, int, double* row) { std::fill_n(row, nx, 1.0); }};
  if (spec.initial == "hot-face")
    return core::hot_face_source(nx, spec.ny, spec.nz);
  throw std::invalid_argument("scenario: unknown initial \"" +
                              spec.initial + "\"");
}

/// level0(spec) as a grid.
[[nodiscard]] inline core::Grid3 make_initial(const CaseSpec& spec) {
  return level0(spec).materialize();
}

/// True when the resolved geometry is lbm geometry codes (the engine
/// must set SolverConfig::lbm_geometry_from_aux for these).
[[nodiscard]] inline bool geometry_is_codes(const CaseSpec& spec) {
  const std::string g = resolve_geometry(spec);
  return g == "cavity" || g == "obstacle";
}

/// Spacing of the "fibers" geometry's fiber array along y and z for a
/// grid `extent` cells wide: fibers start at multiples of it.
[[nodiscard]] inline int fiber_pitch(int extent) {
  return std::max(4, extent / 4);
}

/// The auxiliary field of the case as a row source, empty when the
/// operator runs without one:
///   slab     — core::make_slab_kappa's material
///   fibers   — insulating background with an array of conductive square
///              fibers along x (the composite_material example's field,
///              parameterized by kfiber)
///   cavity   — geometry codes (0 fluid / 1 wall / 2 lid) of a closed
///              cavity whose top z face is the moving lid:
///              lbm::Geometry::cavity spelled as codes
///   obstacle — the cavity with a centered solid block of a quarter of
///              each extent, the smallest geometry the built-in cavity
///              cannot express
/// Throws when the combination makes no sense (a kappa material under
/// lbm, geometry codes under a diffusion operator, or varcoef with no
/// material at all).
[[nodiscard]] inline core::GridSource aux_source(const CaseSpec& spec) {
  const std::string g = resolve_geometry(spec);
  const bool is_lbm = spec.op.rfind("lbm", 0) == 0;
  const int nx = spec.nx, ny = spec.ny, nz = spec.nz;
  if (g == "none") {
    if (spec.op == "varcoef")
      throw std::invalid_argument(
          "scenario: operator varcoef needs geometry slab or fibers");
    return {};
  }
  if (g == "slab" || g == "fibers") {
    if (is_lbm)
      throw std::invalid_argument("scenario: geometry \"" + g +
                                  "\" is a material field; the lbm "
                                  "operators take cavity|obstacle|none");
    if (g == "slab")
      return {nx, ny, nz, [nx, nz](int, int k, double* row) {
                std::fill_n(row, nx, core::slab_kappa(nz, k));
              }};
    const int pitch = fiber_pitch(ny);
    const int width = std::max(1, pitch / 3);
    return {nx, ny, nz,
            [nx, pitch, width, kfiber = spec.kfiber](int j, int k,
                                                     double* row) {
              const bool fiber = j % pitch < width && k % pitch < width;
              std::fill_n(row, nx, fiber ? kfiber : 1.0);
            }};
  }
  // cavity | obstacle: lbm geometry codes.
  if (!is_lbm)
    throw std::invalid_argument("scenario: geometry \"" + g +
                                "\" is lbm-only; diffusion operators take "
                                "slab|fibers|none");
  // The obstacle block (unused for the plain cavity).
  const bool obstacle = g == "obstacle";
  const int bx = std::max(1, nx / 4), by = std::max(1, ny / 4),
            bz = std::max(1, nz / 4);
  const int i0 = (nx - bx) / 2, j0 = (ny - by) / 2, k0 = (nz - bz) / 2;
  return {nx, ny, nz, [=](int j, int k, double* row) {
            if (k == 0 || k == nz - 1 || j == 0 || j == ny - 1) {
              std::fill_n(row, nx, k == nz - 1 ? 2.0 : 1.0);
            } else {
              std::fill_n(row, nx, 0.0);
              row[0] = row[nx - 1] = 1.0;
            }
            if (obstacle && k >= k0 && k < k0 + bz && j >= j0 &&
                j < j0 + by)
              std::fill_n(row + i0, bx, 1.0);
          }};
}

/// aux_source(spec) as a grid, or nullopt when the operator runs without
/// one.
[[nodiscard]] inline std::optional<core::Grid3> make_aux(
    const CaseSpec& spec) {
  const core::GridSource aux = aux_source(spec);
  if (!aux) return std::nullopt;
  return aux.materialize();
}

}  // namespace tb::scenario
