// The Page Classifier's two nonlinearities, sigmoid and tanh, owned here
// rather than taken from the platform libm.
//
// Every GRU gate in training (lane BPTT), in int8 prediction, and every
// logistic-regression score of Algorithm 1 goes through these definitions,
// so the model's floats depend on this file and on IEEE-754 single
// precision only, never on the libm a build links.
//
//  * One scalar definition per function, out of line in phftl_ml, which
//    builds with -ffp-contract=off: no multiply and add is ever fused into
//    an FMA, whatever the target. An inlined copy in a caller built without
//    that flag could be fused and stop matching.
//  * An AVX2 twin applies each function in place over an array, doing the
//    same float operations in the same order on 8 elements at once. It is
//    bit-identical to the scalar definition for every non-NaN input (NaN
//    in gives NaN out). A runtime dispatcher picks it on CPUs with AVX2,
//    as for the kernels in ml/kernels.hpp.
//
// Both use e^t = p(r) · 2^n with a Cody–Waite reduction t = n·ln2 + r,
// |r| ≤ ln2/2, and a degree-6 polynomial p. Against the exact functions
// the absolute error stays below 2^-21 (tests sweep 1.1e7 floats; the
// worst is about 2^-23.4, as with libm).
#pragma once

#include <cstddef>

namespace phftl::ml::act {

/// σ(x) = 1 / (1 + e^-x), in [0, 1].
float sigmoid(float x);

/// tanh(x), in [-1, 1]. Odd bit for bit: tanh(-x) == -tanh(x), and
/// tanh(±0) == ±0.
float tanh(float x);

/// x[i] = sigmoid(x[i]) for i < n: the scalar definition, element by
/// element, run 8 elements at a time where the CPU has AVX2.
void sigmoid_inplace(float* x, std::size_t n);

/// x[i] = tanh(x[i]) for i < n, likewise.
void tanh_inplace(float* x, std::size_t n);

}  // namespace phftl::ml::act
