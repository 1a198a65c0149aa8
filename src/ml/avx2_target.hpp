// Compile switch for the runtime-dispatched AVX2 code in src/ml.
//
// PHFTL_ML_X86 is defined on x86-64 GCC/Clang builds. PHFTL_TARGET_AVX2
// marks a function to compile for AVX2 even when the build targets
// baseline x86-64; the dispatchers only call such a function on CPUs where
// __builtin_cpu_supports("avx2") holds. It never enables FMA.
#pragma once

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PHFTL_ML_X86 1
#include <immintrin.h>
#ifdef __AVX2__
#define PHFTL_TARGET_AVX2
#else
#define PHFTL_TARGET_AVX2 __attribute__((target("avx2")))
#endif
#endif
