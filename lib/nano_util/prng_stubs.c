/* Batched SplitMix64 threshold draws for the blocked simulation kernel.
 *
 * These stubs compute EXACTLY the draws of the OCaml reference
 * implementations in prng.ml (Prng.xor_noise_blocked_ref /
 * Prng.xor_noise_lanes_blocked_ref): draw i of word j comes from
 * SplitMix64 state  s0 + (offset + j*stride + i + 1) * gamma, mixed by
 * the Steele-Lea-Flood finalizer, truncated to 53 bits, and flips bit i
 * when it falls below the packed integer threshold (Prng.threshold_bits).
 * Bit-identity with the OCaml path is enforced by differential tests, so
 * every SIMD variant below must keep the integer semantics exact.
 *
 * The positioned-draw scheme is what makes this vectorizable at all:
 * the 64 states of one word form an arithmetic progression, so 2, 4 or
 * 8 draws can be mixed in independent SIMD lanes with no cross-draw
 * dependency. Dispatch is resolved once at load time:
 * AVX-512 (F+DQ: native 64-bit vector multiply, 8 draws/step) when the
 * CPU has it, then AVX2 (emulated 64-bit multiply, 4 draws/step), then
 * portable scalar C. aarch64 builds select NEON (emulated 64-bit
 * multiply, 2 draws/step) at compile time — Advanced SIMD is baseline
 * on ARMv8, so no runtime probe is needed. Other targets compile the
 * scalar path only.
 *
 * Three kernel families share the draw machinery:
 *   - xor_noise_blocked: XOR a 64-draw flip mask into each word;
 *   - xor_noise_lanes_blocked: one shared uniform per bit position
 *     thinned against per-lane thresholds (the CRN grid kernel). The
 *     word's uniforms stay in vector registers: a compare against the
 *     row maximum skips words no lane flips, at most three candidate
 *     bits are compared with each lane one by one, and otherwise one
 *     compare per lane per register builds each lane's 64-bit flip
 *     mask, XORed into that lane's word once;
 *   - store_density_blocked: STORE the 64-draw mask — biased input
 *     stimulus, same draw order and threshold rule as the noise path.
 */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

#define GAMMA UINT64_C(0x9E3779B97F4A7C15)
#define MIX1 UINT64_C(0xBF58476D1CE4E5B9)
#define MIX2 UINT64_C(0x94D049BB133111EB)

static inline uint64_t mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * MIX1;
  z = (z ^ (z >> 27)) * MIX2;
  return z ^ (z >> 31);
}

static inline uint64_t load64(const unsigned char *p) {
  uint64_t v;
  memcpy(&v, p, 8);
  return v;
}

static inline void store64(unsigned char *p, uint64_t v) {
  memcpy(p, &v, 8);
}

/* ---------------- scalar paths ---------------- */

/* Flip mask for one 64-lane word: bit i set iff draw at state
 * base + (i+1)*gamma falls below t (both operands < 2^53). */
static uint64_t noise_mask_scalar(uint64_t base, uint64_t t) {
  uint64_t mask = 0, s = base;
  for (int i = 0; i < 64; i++) {
    s += GAMMA;
    uint64_t u = mix64(s) >> 11;
    mask |= (uint64_t)(u < t) << i;
  }
  return mask;
}

/* Multi-lane kernels: (base, gstride, width, thr, lanes, dst_array,
 * pos), word j drawn from state base + j*gstride. thr holds the row
 * maximum then the lanes' thresholds; lane k's flips land in Bytes k of
 * dst_array at byte offset pos + 8*j. Every level flips bit i of lane k
 * iff u_i < row maximum and u_i < t_k, the reference's rule. */
typedef void lanes_fn(uint64_t, uint64_t, intnat, const unsigned char *,
                      intnat, value, intnat);

static inline void xor_lane(value vdst, intnat k, intnat off, uint64_t m) {
  unsigned char *b = (unsigned char *)Bytes_val(Field(vdst, k)) + off;
  store64(b, load64(b) ^ m);
}

/* Lane k's threshold clamped to the row maximum, so one compare decides
 * both of the reference's conditions. */
static inline uint64_t lane_threshold(const unsigned char *thr, intnat k,
                                      uint64_t tmax) {
  uint64_t t = load64(thr + 8 * (k + 1));
  return t < tmax ? t : tmax;
}

/* True when cand has at most three bits set. */
static inline int few_candidates(uint64_t cand) {
  cand &= cand - 1;
  cand &= cand - 1;
  return (cand & (cand - 1)) == 0;
}

/* The sparse side of the vector kernels: with at most three candidate
 * bits, rebuilding each one's uniform from its state and comparing it
 * with every lane costs less than a lane-by-lane pass over all 64. */
static inline void lanes_sparse(uint64_t base, uint64_t cand,
                                const unsigned char *thr, intnat lanes,
                                value vdst, intnat off) {
  while (cand) {
    int i = __builtin_ctzll(cand);
    cand &= cand - 1;
    uint64_t u = mix64(base + (uint64_t)(i + 1) * GAMMA) >> 11;
    for (intnat k = 0; k < lanes; k++)
      xor_lane(vdst, k, off, (uint64_t)(u < load64(thr + 8 * (k + 1))) << i);
  }
}

static void noise_lanes_scalar(uint64_t base, uint64_t gstride, intnat width,
                               const unsigned char *thr, intnat lanes,
                               value vdst, intnat pos) {
  uint64_t tmax = load64(thr);
  for (intnat j = 0; j < width; j++, base += gstride) {
    uint64_t s = base;
    for (int i = 0; i < 64; i++) {
      s += GAMMA;
      uint64_t u = mix64(s) >> 11;
      if (u < tmax)
        for (intnat k = 0; k < lanes; k++)
          if (u < load64(thr + 8 * (k + 1)))
            xor_lane(vdst, k, pos + 8 * j, UINT64_C(1) << i);
    }
  }
}

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>

/* ---------------- AVX-512 paths (F + DQ for vpmullq) ---------------- */

__attribute__((target("avx512f,avx512dq"))) static inline __m512i
mix64_x8(__m512i z) {
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 30)),
                         _mm512_set1_epi64((int64_t)MIX1));
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 27)),
                         _mm512_set1_epi64((int64_t)MIX2));
  return _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
}

__attribute__((target("avx512f,avx512dq"))) static uint64_t
noise_mask_avx512(uint64_t base, uint64_t t) {
  /* Draw octet k covers bit positions 8k..8k+7; lane l of the octet is
   * the draw at base + (8k + l + 1) * gamma. */
  __m512i s = _mm512_add_epi64(
      _mm512_set1_epi64((int64_t)base),
      _mm512_setr_epi64((int64_t)(1 * GAMMA), (int64_t)(2 * GAMMA),
                        (int64_t)(3 * GAMMA), (int64_t)(4 * GAMMA),
                        (int64_t)(5 * GAMMA), (int64_t)(6 * GAMMA),
                        (int64_t)(7 * GAMMA), (int64_t)(8 * GAMMA)));
  const __m512i step = _mm512_set1_epi64((int64_t)(8 * GAMMA));
  const __m512i vt = _mm512_set1_epi64((int64_t)t);
  uint64_t mask = 0;
  for (int k = 0; k < 8; k++) {
    __m512i u = _mm512_srli_epi64(mix64_x8(s), 11);
    mask |= (uint64_t)_mm512_cmplt_epu64_mask(u, vt) << (8 * k);
    s = _mm512_add_epi64(s, step);
  }
  return mask;
}

/* Bit 8r + l set iff lane l of u[r] is below vt. */
__attribute__((target("avx512f,avx512dq"))) static inline uint64_t
below_avx512(const __m512i *u, __m512i vt) {
  uint64_t m = 0;
  for (int r = 0; r < 8; r++)
    m |= (uint64_t)_mm512_cmplt_epu64_mask(u[r], vt) << (8 * r);
  return m;
}

__attribute__((target("avx512f,avx512dq"))) static void
noise_lanes_avx512(uint64_t base, uint64_t gstride, intnat width,
                   const unsigned char *thr, intnat lanes, value vdst,
                   intnat pos) {
  const __m512i ramp = _mm512_setr_epi64(
      (int64_t)(1 * GAMMA), (int64_t)(2 * GAMMA), (int64_t)(3 * GAMMA),
      (int64_t)(4 * GAMMA), (int64_t)(5 * GAMMA), (int64_t)(6 * GAMMA),
      (int64_t)(7 * GAMMA), (int64_t)(8 * GAMMA));
  const __m512i step = _mm512_set1_epi64((int64_t)(8 * GAMMA));
  uint64_t tmax = load64(thr);
  for (intnat j = 0; j < width; j++, base += gstride) {
    __m512i s = _mm512_add_epi64(_mm512_set1_epi64((int64_t)base), ramp);
    __m512i u[8];
    for (int r = 0; r < 8; r++) {
      u[r] = _mm512_srli_epi64(mix64_x8(s), 11);
      s = _mm512_add_epi64(s, step);
    }
    uint64_t cand = below_avx512(u, _mm512_set1_epi64((int64_t)tmax));
    if (!cand) continue;
    if (few_candidates(cand)) {
      lanes_sparse(base, cand, thr, lanes, vdst, pos + 8 * j);
      continue;
    }
    for (intnat k = 0; k < lanes; k++)
      xor_lane(vdst, k, pos + 8 * j,
               below_avx512(u, _mm512_set1_epi64(
                                   (int64_t)lane_threshold(thr, k, tmax))));
  }
}

/* ---------------- AVX2 paths (emulated 64-bit multiply) ------------- */

__attribute__((target("avx2"))) static inline __m256i mul64_x4(__m256i a,
                                                               __m256i b) {
  /* lo(a*b) from three 32x32 partial products. */
  __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)),
                                   _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b));
  return _mm256_add_epi64(_mm256_mul_epu32(a, b),
                          _mm256_slli_epi64(cross, 32));
}

__attribute__((target("avx2"))) static inline __m256i mix64_x4(__m256i z) {
  z = mul64_x4(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)),
               _mm256_set1_epi64x((int64_t)MIX1));
  z = mul64_x4(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)),
               _mm256_set1_epi64x((int64_t)MIX2));
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

__attribute__((target("avx2"))) static uint64_t noise_mask_avx2(uint64_t base,
                                                                uint64_t t) {
  __m256i s = _mm256_add_epi64(
      _mm256_set1_epi64x((int64_t)base),
      _mm256_setr_epi64x((int64_t)(1 * GAMMA), (int64_t)(2 * GAMMA),
                         (int64_t)(3 * GAMMA), (int64_t)(4 * GAMMA)));
  const __m256i step = _mm256_set1_epi64x((int64_t)(4 * GAMMA));
  const __m256i vt = _mm256_set1_epi64x((int64_t)t);
  uint64_t mask = 0;
  for (int k = 0; k < 16; k++) {
    __m256i u = _mm256_srli_epi64(mix64_x4(s), 11);
    /* Both operands < 2^53, so signed compare is unsigned compare. */
    __m256i lt = _mm256_cmpgt_epi64(vt, u);
    mask |= (uint64_t)_mm256_movemask_pd(_mm256_castsi256_pd(lt)) << (4 * k);
    s = _mm256_add_epi64(s, step);
  }
  return mask;
}

/* Bit 4r + l set iff lane l of u[r] is below vt. Both operands are
 * below 2^53, so the signed compare is the unsigned one. */
__attribute__((target("avx2"))) static inline uint64_t
below_avx2(const __m256i *u, __m256i vt) {
  uint64_t m = 0;
  for (int r = 0; r < 16; r++)
    m |= (uint64_t)_mm256_movemask_pd(
             _mm256_castsi256_pd(_mm256_cmpgt_epi64(vt, u[r])))
         << (4 * r);
  return m;
}

__attribute__((target("avx2"))) static void
noise_lanes_avx2(uint64_t base, uint64_t gstride, intnat width,
                 const unsigned char *thr, intnat lanes, value vdst,
                 intnat pos) {
  const __m256i ramp =
      _mm256_setr_epi64x((int64_t)(1 * GAMMA), (int64_t)(2 * GAMMA),
                         (int64_t)(3 * GAMMA), (int64_t)(4 * GAMMA));
  const __m256i step = _mm256_set1_epi64x((int64_t)(4 * GAMMA));
  uint64_t tmax = load64(thr);
  for (intnat j = 0; j < width; j++, base += gstride) {
    __m256i s = _mm256_add_epi64(_mm256_set1_epi64x((int64_t)base), ramp);
    __m256i u[16];
    for (int r = 0; r < 16; r++) {
      u[r] = _mm256_srli_epi64(mix64_x4(s), 11);
      s = _mm256_add_epi64(s, step);
    }
    uint64_t cand = below_avx2(u, _mm256_set1_epi64x((int64_t)tmax));
    if (!cand) continue;
    if (few_candidates(cand)) {
      lanes_sparse(base, cand, thr, lanes, vdst, pos + 8 * j);
      continue;
    }
    for (intnat k = 0; k < lanes; k++)
      xor_lane(vdst, k, pos + 8 * j,
               below_avx2(u, _mm256_set1_epi64x(
                                 (int64_t)lane_threshold(thr, k, tmax))));
  }
}

/* ---------------- dispatch ---------------- */

static uint64_t (*noise_mask_fn)(uint64_t, uint64_t) = noise_mask_scalar;
static lanes_fn *noise_lanes_fn = noise_lanes_scalar;
/* Indexed by level: the lanes kernels this CPU can run. */
static lanes_fn *lanes_by_level[4] = {noise_lanes_scalar};

__attribute__((constructor)) static void nano_prng_init(void) {
  if (__builtin_cpu_supports("avx2")) {
    noise_mask_fn = noise_mask_avx2;
    noise_lanes_fn = lanes_by_level[1] = noise_lanes_avx2;
  }
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq")) {
    noise_mask_fn = noise_mask_avx512;
    noise_lanes_fn = lanes_by_level[2] = noise_lanes_avx512;
  }
}

static int simd_width(void) {
  if (noise_mask_fn == noise_mask_avx512) return 8;
  if (noise_mask_fn == noise_mask_avx2) return 4;
  return 1;
}

/* 0 = scalar, 1 = avx2, 2 = avx512, 3 = neon (Prng.simd_level). */
static int simd_level(void) {
  if (noise_mask_fn == noise_mask_avx512) return 2;
  if (noise_mask_fn == noise_mask_avx2) return 1;
  return 0;
}

#elif defined(__aarch64__) && defined(__GNUC__)
#include <arm_neon.h>

/* ---------------- NEON paths (2 draws/step) ---------------- */

/* NEON has no 64x64-bit vector multiply; build lo(a*b) from the same
 * three 32x32 partial products as the AVX2 path, using the widening
 * vmull_u32 on the narrowed halves. */
static inline uint64x2_t mul64_x2(uint64x2_t a, uint64x2_t b) {
  uint32x2_t a_lo = vmovn_u64(a);
  uint32x2_t b_lo = vmovn_u64(b);
  uint32x2_t a_hi = vshrn_n_u64(a, 32);
  uint32x2_t b_hi = vshrn_n_u64(b, 32);
  uint64x2_t cross = vaddq_u64(vmull_u32(a_lo, b_hi), vmull_u32(a_hi, b_lo));
  return vaddq_u64(vmull_u32(a_lo, b_lo), vshlq_n_u64(cross, 32));
}

static inline uint64x2_t mix64_x2(uint64x2_t z) {
  z = mul64_x2(veorq_u64(z, vshrq_n_u64(z, 30)), vdupq_n_u64(MIX1));
  z = mul64_x2(veorq_u64(z, vshrq_n_u64(z, 27)), vdupq_n_u64(MIX2));
  return veorq_u64(z, vshrq_n_u64(z, 31));
}

static uint64_t noise_mask_neon(uint64_t base, uint64_t t) {
  /* Draw pair k covers bit positions 2k and 2k+1; lane l of the pair is
   * the draw at base + (2k + l + 1) * gamma. */
  uint64x2_t s = vcombine_u64(vcreate_u64(base + 1 * GAMMA),
                              vcreate_u64(base + 2 * GAMMA));
  const uint64x2_t step = vdupq_n_u64(2 * GAMMA);
  const uint64x2_t vt = vdupq_n_u64(t);
  uint64_t mask = 0;
  for (int k = 0; k < 32; k++) {
    uint64x2_t u = vshrq_n_u64(mix64_x2(s), 11);
    uint64x2_t lt = vcltq_u64(u, vt);
    mask |= (vgetq_lane_u64(lt, 0) & 1) << (2 * k);
    mask |= (vgetq_lane_u64(lt, 1) & 1) << (2 * k + 1);
    s = vaddq_u64(s, step);
  }
  return mask;
}

/* Bit 2r + l set iff lane l of u[r] is below vt: each compare is
 * masked onto its two bit positions, which move up two per pair. */
static inline uint64_t below_neon(const uint64x2_t *u, uint64x2_t vt) {
  uint64x2_t bit = vcombine_u64(vcreate_u64(1), vcreate_u64(2));
  uint64x2_t acc = vdupq_n_u64(0);
  for (int r = 0; r < 32; r++) {
    acc = vorrq_u64(acc, vandq_u64(vcltq_u64(u[r], vt), bit));
    bit = vshlq_n_u64(bit, 2);
  }
  return vgetq_lane_u64(acc, 0) | vgetq_lane_u64(acc, 1);
}

static void noise_lanes_neon(uint64_t base, uint64_t gstride, intnat width,
                             const unsigned char *thr, intnat lanes,
                             value vdst, intnat pos) {
  const uint64x2_t ramp =
      vcombine_u64(vcreate_u64(1 * GAMMA), vcreate_u64(2 * GAMMA));
  const uint64x2_t step = vdupq_n_u64(2 * GAMMA);
  uint64_t tmax = load64(thr);
  for (intnat j = 0; j < width; j++, base += gstride) {
    uint64x2_t s = vaddq_u64(vdupq_n_u64(base), ramp);
    uint64x2_t u[32];
    for (int r = 0; r < 32; r++) {
      u[r] = vshrq_n_u64(mix64_x2(s), 11);
      s = vaddq_u64(s, step);
    }
    uint64_t cand = below_neon(u, vdupq_n_u64(tmax));
    if (!cand) continue;
    if (few_candidates(cand)) {
      lanes_sparse(base, cand, thr, lanes, vdst, pos + 8 * j);
      continue;
    }
    for (intnat k = 0; k < lanes; k++)
      xor_lane(vdst, k, pos + 8 * j,
               below_neon(u, vdupq_n_u64(lane_threshold(thr, k, tmax))));
  }
}

#define noise_mask_fn noise_mask_neon
#define noise_lanes_fn noise_lanes_neon

static int simd_width(void) { return 2; }
static int simd_level(void) { return 3; }
static lanes_fn *const lanes_by_level[4] = {noise_lanes_scalar, NULL, NULL,
                                            noise_lanes_neon};

#else /* neither x86_64 nor aarch64: scalar only */

#define noise_mask_fn noise_mask_scalar
#define noise_lanes_fn noise_lanes_scalar

static int simd_width(void) { return 1; }
static int simd_level(void) { return 0; }
static lanes_fn *const lanes_by_level[4] = {noise_lanes_scalar};

#endif

/* ---------------- OCaml entry points ---------------- */

CAMLprim value nano_prng_simd_width(value unit) {
  (void)unit;
  return Val_int(simd_width());
}

CAMLprim value nano_prng_simd_level(value unit) {
  (void)unit;
  return Val_int(simd_level());
}

/* (state_buf, offset, stride, width, thr, thr_pos, dst, pos,
 * pos_stride): STORE [width] stimulus words into dst, word j at byte
 * offset pos + j*pos_stride, drawn from stream position
 * offset + j*stride and thresholded at the int64 read from thr at
 * thr_pos — the biased-density input path. Bit i of a word is set iff
 * the draw at base + (i+1)*gamma falls below the threshold: exactly
 * the noise kernels' mask, so the same SIMD mask function serves, only
 * the combine differs (store, and a byte stride between words, because
 * stimulus words of one input land one block apart in the buffer). */
CAMLprim value nano_prng_store_density_blocked(value vstate, value voffset,
                                               value vstride, value vwidth,
                                               value vthr, value vthrpos,
                                               value vdst, value vpos,
                                               value vposstride) {
  uint64_t s0 = load64((unsigned char *)Bytes_val(vstate));
  uint64_t base = s0 + (uint64_t)Long_val(voffset) * GAMMA;
  uint64_t gstride = (uint64_t)Long_val(vstride) * GAMMA;
  intnat width = Long_val(vwidth);
  uint64_t t = load64((unsigned char *)Bytes_val(vthr) + Long_val(vthrpos));
  unsigned char *dst = (unsigned char *)Bytes_val(vdst) + Long_val(vpos);
  intnat pos_stride = Long_val(vposstride);
  for (intnat j = 0; j < width; j++) {
    store64(dst, noise_mask_fn(base, t));
    dst += pos_stride;
    base += gstride;
  }
  return Val_unit;
}

CAMLprim value nano_prng_store_density_blocked_bytes(value *argv, int argn) {
  (void)argn;
  return nano_prng_store_density_blocked(argv[0], argv[1], argv[2], argv[3],
                                         argv[4], argv[5], argv[6], argv[7],
                                         argv[8]);
}

/* (state_buf, offset, stride, width, thr, thr_pos, dst, pos):
 * XOR [width] flip-mask words into dst at byte offsets pos, pos+8, ...
 * word j drawn from stream position offset + j*stride, thresholded at
 * the int64 read from thr at thr_pos. No allocation, no callbacks. */
CAMLprim value nano_prng_xor_noise_blocked(value vstate, value voffset,
                                           value vstride, value vwidth,
                                           value vthr, value vthrpos,
                                           value vdst, value vpos) {
  uint64_t s0 = load64((unsigned char *)Bytes_val(vstate));
  uint64_t base = s0 + (uint64_t)Long_val(voffset) * GAMMA;
  uint64_t gstride = (uint64_t)Long_val(vstride) * GAMMA;
  intnat width = Long_val(vwidth);
  uint64_t t = load64((unsigned char *)Bytes_val(vthr) + Long_val(vthrpos));
  unsigned char *dst = (unsigned char *)Bytes_val(vdst) + Long_val(vpos);
  for (intnat j = 0; j < width; j++) {
    uint64_t mask = noise_mask_fn(base, t);
    store64(dst, load64(dst) ^ mask);
    dst += 8;
    base += gstride;
  }
  return Val_unit;
}

CAMLprim value nano_prng_xor_noise_blocked_bytes(value *argv, int argn) {
  (void)argn;
  return nano_prng_xor_noise_blocked(argv[0], argv[1], argv[2], argv[3],
                                     argv[4], argv[5], argv[6], argv[7]);
}

/* (state_buf, offset, stride, width, thr, thr_pos, lanes, dst_array,
 * pos): the multi-lane grid kernel. thr holds lanes+1 thresholds at
 * thr_pos, word 0 an upper bound on the rest; one shared uniform per
 * bit position per word; lane k's flips land in Bytes k of dst_array.
 * A word whose uniforms all reach the row maximum writes nothing; one
 * with at most three below it compares those with each lane
 * (lanes_sparse); otherwise each lane's flip mask is built from the
 * uniforms still in vector registers and XORed into its word once
 * (noise_lanes_*). */
CAMLprim value nano_prng_xor_noise_lanes_blocked(value vstate, value voffset,
                                                 value vstride, value vwidth,
                                                 value vthr, value vthrpos,
                                                 value vlanes, value vdst,
                                                 value vpos) {
  uint64_t s0 = load64((unsigned char *)Bytes_val(vstate));
  noise_lanes_fn(s0 + (uint64_t)Long_val(voffset) * GAMMA,
                 (uint64_t)Long_val(vstride) * GAMMA, Long_val(vwidth),
                 (unsigned char *)Bytes_val(vthr) + Long_val(vthrpos),
                 Long_val(vlanes), vdst, Long_val(vpos));
  return Val_unit;
}

CAMLprim value nano_prng_xor_noise_lanes_blocked_bytes(value *argv, int argn) {
  (void)argn;
  return nano_prng_xor_noise_lanes_blocked(argv[0], argv[1], argv[2], argv[3],
                                           argv[4], argv[5], argv[6], argv[7],
                                           argv[8]);
}

/* The same kernel forced to one level (Prng.simd_level's numbering), so
 * tests can pin every level the CPU runs to the OCaml reference. Returns
 * false, drawing nothing, for a level this CPU cannot run. */
CAMLprim value nano_prng_xor_noise_lanes_blocked_level(
    value vlevel, value vstate, value voffset, value vstride, value vwidth,
    value vthr, value vthrpos, value vlanes, value vdst, value vpos) {
  int level = Int_val(vlevel);
  lanes_fn *f = level >= 0 && level < 4 ? lanes_by_level[level] : NULL;
  if (f == NULL) return Val_false;
  uint64_t s0 = load64((unsigned char *)Bytes_val(vstate));
  f(s0 + (uint64_t)Long_val(voffset) * GAMMA,
    (uint64_t)Long_val(vstride) * GAMMA, Long_val(vwidth),
    (unsigned char *)Bytes_val(vthr) + Long_val(vthrpos), Long_val(vlanes),
    vdst, Long_val(vpos));
  return Val_true;
}

CAMLprim value nano_prng_xor_noise_lanes_blocked_level_bytes(value *argv,
                                                             int argn) {
  (void)argn;
  return nano_prng_xor_noise_lanes_blocked_level(
      argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6], argv[7],
      argv[8], argv[9]);
}
