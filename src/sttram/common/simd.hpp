// Fixed-width SIMD lanes with runtime ISA dispatch.
//
// Every batched MC kernel in this repo is *lane-parallel*: one lane = one
// trial, and every lane executes the same operation sequence the scalar
// path would run for that trial.  That makes SIMD safe under the repo's
// bit-identity contract as long as each vector op is IEEE-754 correctly
// rounded (+, -, *, /, sqrt, compare/select/abs are; transcendentals are
// not, so exp/log stay scalar libm calls per lane — see DESIGN.md §15).
//
// `Vec<W>` wraps GCC vector extensions (explicit specializations because
// vector_size cannot depend on a template parameter).  Kernels are written
// once as `template <int W>` and instantiated in per-width translation
// units compiled with the matching -m flags (w2 = baseline SSE2/NEON,
// w4 = -mavx2, w8 = -mavx512f -mavx512dq) plus -ffp-contract=off so no
// mul+add is fused into an FMA (contraction changes rounding).  W = 1 is
// the `scalar` ISA: the same template, instantiated in the dispatching
// TU with baseline flags.  The dispatcher picks the table for
// `active_simd_isa()` at kernel-build time through simd_ladder().
//
// ISA selection order: programmatic override (`--simd`, tests) >
// STTRAM_SIMD environment variable > cpuid autodetection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <string_view>
#include <vector>

namespace sttram {

/// Instruction sets the dispatcher understands, narrowest first.  sse2 is
/// the x86-64 baseline (2 lanes), neon the aarch64 baseline (2 lanes);
/// avx2 runs 4 lanes and avx512 (F+DQ) 8.
enum class SimdIsa : int {
  kScalar = 0,
  kSse2 = 1,
  kNeon = 2,
  kAvx2 = 3,
  kAvx512 = 4,
};

/// Lowercase token for `isa` ("scalar", "sse2", ...).
const char* simd_isa_name(SimdIsa isa);

/// Number of double lanes the ISA's kernels run (scalar = 1).
int simd_isa_lanes(SimdIsa isa);

/// True when this host *and* this build can execute `isa` kernels.
bool simd_isa_supported(SimdIsa isa);

/// Widest supported ISA on this host (cpuid on x86, compile-time on arm).
SimdIsa detect_simd_isa();

/// Parses "auto|scalar|sse2|avx2|avx512|neon".  Returns false on any
/// other token; "auto" sets *is_auto and leaves *out untouched.
bool parse_simd_isa(std::string_view text, SimdIsa* out, bool* is_auto);

/// The ISA every batched kernel dispatches to.  Resolution order:
/// set_simd_isa_override() > STTRAM_SIMD env var > detect_simd_isa().
/// Throws InvalidArgument on an unrecognized or unsupported STTRAM_SIMD
/// value (the CLI pre-validates so usage errors exit 2, not 1).
SimdIsa active_simd_isa();

/// Forces every subsequent kernel build to `isa`.  Throws InvalidArgument
/// if the host/build cannot execute it.  Tests and `--simd` use this.
void set_simd_isa_override(SimdIsa isa);

/// Returns to env/autodetect resolution.
void clear_simd_isa_override();

/// The ISA ladder, the one place its fallback order is written down:
/// the kernel table of the widest width at or below `isa` that this
/// target compiled in — AVX-512 (w8) -> AVX2 (w4) -> SSE2/NEON (w2) ->
/// scalar (w1).  A wider table is nullptr when its width is not built
/// for the target; the W = 1 table always exists.
template <class Table>
const Table& simd_ladder(SimdIsa isa, const Table* w8, const Table* w4,
                         const Table* w2, const Table& w1) {
  switch (isa) {
    case SimdIsa::kAvx512:
      if (w8 != nullptr) return *w8;
      [[fallthrough]];
    case SimdIsa::kAvx2:
      if (w4 != nullptr) return *w4;
      [[fallthrough]];
    case SimdIsa::kSse2:
    case SimdIsa::kNeon:
      if (w2 != nullptr) return *w2;
      [[fallthrough]];
    case SimdIsa::kScalar:
      break;
  }
  return w1;
}

namespace simd {
// Internal linkage for everything a kernel instantiates: W = 1 code is
// emitted both by the baseline dispatching TUs and by the -mavx2 /
// -mavx512f width TUs (their remainder strips), so with external linkage
// the linker could keep an AVX-encoded out-of-line copy for the scalar
// path.  Each TU keeps its own copy, built with its own flags.
namespace {

/// Maps a lane count to the GCC vector types of that width: `vd` double
/// lanes, `vm` the signed compare-mask type (-1 / 0 per lane) and `vu`
/// unsigned 64-bit integer lanes.  Integer arithmetic (the rng lanes)
/// runs on `vu` only, where shifts are logical and overflow wraps; a
/// compare result is cast to `vu` before it is combined with them.
/// Explicit specializations: `vector_size` must be a literal, not
/// W-dependent.
template <int W>
struct LaneTraits;

template <>
struct LaneTraits<1> {
  typedef double vd __attribute__((vector_size(8)));
  typedef long long vm __attribute__((vector_size(8)));
  typedef unsigned long long vu __attribute__((vector_size(8)));
};
template <>
struct LaneTraits<2> {
  typedef double vd __attribute__((vector_size(16)));
  typedef long long vm __attribute__((vector_size(16)));
  typedef unsigned long long vu __attribute__((vector_size(16)));
};
template <>
struct LaneTraits<4> {
  typedef double vd __attribute__((vector_size(32)));
  typedef long long vm __attribute__((vector_size(32)));
  typedef unsigned long long vu __attribute__((vector_size(32)));
};
template <>
struct LaneTraits<8> {
  typedef double vd __attribute__((vector_size(64)));
  typedef long long vm __attribute__((vector_size(64)));
  typedef unsigned long long vu __attribute__((vector_size(64)));
};

/// W double lanes.  Arithmetic is element-wise IEEE-754; min/max/abs are
/// expressed as compare+select so every lane reproduces the scalar
/// `std::min`/`std::max`/bit-and-abs result (ties and signed zeros
/// included).  Loads and stores go through memcpy, so unaligned pointers
/// are always safe (alignment still matters for cache behavior — keep
/// hot blocks on 64-byte boundaries).
template <int W>
struct Vec {
  using D = typename LaneTraits<W>::vd;
  using M = typename LaneTraits<W>::vm;  ///< compare result: -1 / 0 lanes

  D v;

  static Vec load(const double* p) {
    Vec r;
    __builtin_memcpy(&r.v, p, sizeof(D));
    return r;
  }
  void store(double* p) const { __builtin_memcpy(p, &v, sizeof(D)); }
  /// Broadcast.  `x - 0.0` is exactly x for every x (-0.0 included), so
  /// GCC folds it to a plain broadcast.
  static Vec splat(double x) { return Vec{x - D{}}; }
  double operator[](int i) const { return v[i]; }

  friend Vec operator+(Vec a, Vec b) { return Vec{a.v + b.v}; }
  friend Vec operator-(Vec a, Vec b) { return Vec{a.v - b.v}; }
  friend Vec operator*(Vec a, Vec b) { return Vec{a.v * b.v}; }
  friend Vec operator/(Vec a, Vec b) { return Vec{a.v / b.v}; }
  friend Vec operator-(Vec a) { return Vec{-a.v}; }

  friend M operator<(Vec a, Vec b) { return a.v < b.v; }
  friend M operator<=(Vec a, Vec b) { return a.v <= b.v; }
  friend M operator==(Vec a, Vec b) { return a.v == b.v; }

  /// Per-lane `m ? a : b`.
  static Vec select(M m, Vec a, Vec b) { return Vec{m ? a.v : b.v}; }

  /// `std::max` per lane: (a < b) ? b : a.
  friend Vec vmax(Vec a, Vec b) { return Vec{(a.v < b.v) ? b.v : a.v}; }
  /// `std::min` per lane: (b < a) ? b : a.
  friend Vec vmin(Vec a, Vec b) { return Vec{(b.v < a.v) ? b.v : a.v}; }
  /// `std::sqrt` per lane.  sqrt is IEEE-754 correctly rounded, so the
  /// per-element loop and the packed instruction GCC turns it into under
  /// -fno-math-errno produce the same bits as scalar std::sqrt.
  friend Vec vsqrt(Vec a) {
    Vec r;
    for (int i = 0; i < W; ++i) r.v[i] = __builtin_sqrt(a.v[i]);
    return r;
  }
  /// `std::fabs` per lane (clears the sign bit, so -0.0 -> +0.0).
  friend Vec vabs(Vec a) {
    M bits;
    __builtin_memcpy(&bits, &a.v, sizeof(D));
    bits &= 0x7fffffffffffffffLL;
    Vec r;
    __builtin_memcpy(&r.v, &bits, sizeof(D));
    return r;
  }
};

/// True when any lane of a W-lane mask (a compare result `vm` or an
/// unsigned `vu` mask) is nonzero.
template <int W, class Mask>
inline bool mask_any(Mask m) {
  bool any = false;
  for (int i = 0; i < W; ++i) any |= (m[i] != 0);
  return any;
}

}  // namespace
}  // namespace simd

/// 64-byte-aligning allocator so SoA block rows start on cache-line
/// boundaries (std::vector's default allocator only guarantees 16).
template <class T>
struct AlignedAllocator {
  using value_type = T;
  static constexpr std::size_t kAlign = 64;

  AlignedAllocator() = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(kAlign)));
  }
  void deallocate(T* p, std::size_t) {
    ::operator delete(p, std::align_val_t(kAlign));
  }
  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

/// std::vector whose buffer starts on a 64-byte boundary.
template <class T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

}  // namespace sttram
