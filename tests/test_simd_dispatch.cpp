// Unit tests for the SIMD dispatch layer (simd/dispatch.hpp): env
// override parsing, the unknown-value diagnostic, ScopedIsaOverride
// nesting, and the forced-scalar-equals-native output guarantee.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "contraction/contract.hpp"
#include "simd/dispatch.hpp"
#include "tensor/generators.hpp"

namespace sparta::simd {
namespace {

TEST(SimdDispatch, IsaNames) {
  EXPECT_EQ(isa_name(SimdIsa::kScalar), "scalar");
  EXPECT_EQ(isa_name(SimdIsa::kAvx2), "avx2");
  EXPECT_EQ(isa_name(SimdIsa::kNeon), "neon");
}

TEST(SimdDispatch, ResolveAutoAndEmptyMeanNative) {
  EXPECT_EQ(resolve_isa(nullptr), detect_native_isa());
  EXPECT_EQ(resolve_isa(""), detect_native_isa());
  EXPECT_EQ(resolve_isa("auto"), detect_native_isa());
}

TEST(SimdDispatch, ResolveScalarAlwaysWorks) {
  EXPECT_EQ(resolve_isa("scalar"), SimdIsa::kScalar);
}

TEST(SimdDispatch, ResolveNativeTierWorks) {
  // Requesting exactly what the machine has must succeed.
  const SimdIsa native = detect_native_isa();
  if (native != SimdIsa::kScalar) {
    EXPECT_EQ(resolve_isa(std::string(isa_name(native)).c_str()), native);
  }
}

TEST(SimdDispatch, ResolveForeignTierThrows) {
  // A tier this machine cannot execute must fail loudly, not silently
  // fall back (a typo'd CI matrix leg must fail its job).
#if defined(__x86_64__) || defined(_M_X64)
  EXPECT_THROW((void)resolve_isa("neon"), Error);
#elif defined(__aarch64__)
  EXPECT_THROW((void)resolve_isa("avx2"), Error);
#endif
}

TEST(SimdDispatch, ResolveUnknownValueNamesOffenderAndValidSet) {
  try {
    (void)resolve_isa("sse9");
    FAIL() << "expected sparta::Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("sse9"), std::string::npos) << msg;
    EXPECT_NE(msg.find("scalar"), std::string::npos) << msg;
    EXPECT_NE(msg.find("auto"), std::string::npos) << msg;
  }
}

TEST(SimdDispatch, ScopedOverrideSetsAndRestores) {
  const SimdIsa ambient = active_isa();
  {
    ScopedIsaOverride scalar(SimdIsa::kScalar);
    EXPECT_EQ(active_isa(), SimdIsa::kScalar);
    EXPECT_FALSE(vector_isa_active());
    {
      ScopedIsaOverride native(detect_native_isa());
      EXPECT_EQ(active_isa(), detect_native_isa());
    }
    EXPECT_EQ(active_isa(), SimdIsa::kScalar);  // inner scope restored
  }
  EXPECT_EQ(active_isa(), ambient);
}

TEST(SimdDispatch, ScopedOverrideRejectsForeignTier) {
#if defined(__x86_64__) || defined(_M_X64)
  EXPECT_THROW(ScopedIsaOverride o(SimdIsa::kNeon), Error);
#elif defined(__aarch64__)
  EXPECT_THROW(ScopedIsaOverride o(SimdIsa::kAvx2), Error);
#endif
}

// The dispatch contract the CI isa-matrix job rests on: forcing scalar
// changes wall time, never output bits. Single-threaded so the parallel
// HtY build cannot reorder floating-point accumulation between runs.
TEST(SimdDispatch, ForcedScalarIsBitwiseEqualToNative) {
  GeneratorSpec xs;
  xs.dims = {16, 12, 20};
  xs.nnz = 400;
  xs.seed = 7;
  GeneratorSpec ys;
  ys.dims = {12, 20, 9};
  ys.nnz = 400;
  ys.seed = 8;
  const SparseTensor x = generate_random(xs);
  const SparseTensor y = generate_random(ys);

  ContractOptions o;
  o.algorithm = Algorithm::kSparta;
  o.num_threads = 1;

  SparseTensor z_scalar;
  {
    ScopedIsaOverride force(SimdIsa::kScalar);
    z_scalar = contract_tensor(x, y, {1, 2}, {0, 1}, o);
  }
  SparseTensor z_native;
  {
    ScopedIsaOverride force(detect_native_isa());
    z_native = contract_tensor(x, y, {1, 2}, {0, 1}, o);
  }

  ASSERT_EQ(z_scalar.nnz(), z_native.nnz());
  for (std::size_t n = 0; n < z_scalar.nnz(); ++n) {
    for (int m = 0; m < z_scalar.order(); ++m) {
      ASSERT_EQ(z_scalar.index(n, m), z_native.index(n, m))
          << "nonzero " << n;
    }
    // Bitwise, not approximate: identical probe and drain order must
    // give an identical FP accumulation order.
    ASSERT_EQ(z_scalar.value(n), z_native.value(n)) << "nonzero " << n;
  }
}

}  // namespace
}  // namespace sparta::simd
