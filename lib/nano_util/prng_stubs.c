/* Batched SplitMix64 threshold draws and the blocked netlist evaluator
 * for the Monte-Carlo kernel.
 *
 * The draw stubs compute EXACTLY the draws of the OCaml reference
 * implementations in test/prng_ref.ml, which test_prng pins them to
 * through Prng.For_testing: draw i of word j comes from
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
 * AVX-512 (F+DQ+BW: native 64-bit vector multiply, 8 draws/step, lane
 * masks assembled in mask registers) when the CPU has it, then AVX2
 * (emulated 64-bit multiply, 4 draws/step), then portable scalar C.
 * aarch64 builds select NEON (emulated 64-bit multiply, 2 draws/step)
 * at compile time — Advanced SIMD is baseline on ARMv8, so no runtime
 * probe is needed. Other targets compile the scalar path only.
 *
 * Three kernel families share the draw machinery:
 *   - xor_noise_blocked: XOR a 64-draw flip mask into each word;
 *   - xor_noise_lanes_blocked: one shared uniform per bit position
 *     thinned against per-lane thresholds (the CRN grid kernel). The
 *     word's uniforms stay in registers: a compare against the row
 *     maximum gives the candidate mask and skips words no lane flips,
 *     at most three candidate bits are compared with each lane one by
 *     one, and otherwise one compare per lane per register builds each
 *     lane's 64-bit flip mask, XORed into that lane's word once. A lane
 *     whose threshold reaches the row maximum takes the candidate mask
 *     without a compare;
 *   - store_density_blocked: STORE the 64-draw mask — biased input
 *     stimulus, same draw order and threshold rule as the noise path.
 *
 * The second half of the file is the blocked evaluator behind
 * Nano_netlist.Compiled: one opcode interpreter over position-indexed
 * blocked value buffers (8 words per schedule position), the counters
 * (ones and toggles with hardware popcount where the CPU has it,
 * dispatched at load like the draw kernels), and the fused grid pass
 * that evaluates every lane of a cache segment, XORs in the lane flip
 * masks at each noisy position and takes the counters without
 * returning to OCaml. It lives in this unit so the pass calls the lane
 * kernels directly. The opcode numbers are shared with Compiled's
 * op_* constants (compiled.ml); test_compiled pins the two tables to
 * each other through Compiled.kernel_opcode.
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
 * both of the reference's conditions — and a lane at the maximum flips
 * exactly the candidate bits, with no compare at all. */
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
  uint64_t tmax = load64(thr), bit[3], u[3];
  int n = 0;
  for (uint64_t c = cand; c; c &= c - 1, n++) {
    int i = __builtin_ctzll(c);
    bit[n] = UINT64_C(1) << i;
    u[n] = mix64(base + (uint64_t)(i + 1) * GAMMA) >> 11;
  }
  for (intnat k = 0; k < lanes; k++) {
    uint64_t t = lane_threshold(thr, k, tmax), m = cand;
    if (t != tmax) {
      m = 0;
      for (int c = 0; c < n; c++)
        if (u[c] < t) m |= bit[c];
    }
    if (m) xor_lane(vdst, k, off, m);
  }
}

static void noise_lanes_scalar(uint64_t base, uint64_t gstride, intnat width,
                               const unsigned char *thr, intnat lanes,
                               value vdst, intnat pos) {
  uint64_t tmax = load64(thr), u[64];
  for (intnat j = 0; j < width; j++, base += gstride) {
    uint64_t s = base, cand = 0;
    for (int i = 0; i < 64; i++) {
      s += GAMMA;
      u[i] = mix64(s) >> 11;
      cand |= (uint64_t)(u[i] < tmax) << i;
    }
    if (!cand) continue;
    for (intnat k = 0; k < lanes; k++) {
      uint64_t t = lane_threshold(thr, k, tmax), m = cand;
      if (t != tmax) {
        m = 0;
        for (uint64_t c = cand; c; c &= c - 1) {
          int i = __builtin_ctzll(c);
          m |= (uint64_t)(u[i] < t) << i;
        }
      }
      if (m) xor_lane(vdst, k, pos + 8 * j, m);
    }
  }
}

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>

/* ------- AVX-512 paths (F + DQ for vpmullq, BW for mask unpacks) ------- */

#define AVX512_TARGET __attribute__((target("avx512f,avx512dq,avx512bw")))

AVX512_TARGET static inline __m512i mix64_x8(__m512i z) {
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 30)),
                         _mm512_set1_epi64((int64_t)MIX1));
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 27)),
                         _mm512_set1_epi64((int64_t)MIX2));
  return _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
}

/* The word's 64 uniforms: register r, lane l holds the draw at
 * base + (8r + l + 1) * gamma, so bit 8r + l of a mask is that draw. */
AVX512_TARGET static inline void uniforms_avx512(uint64_t base, __m512i *u) {
  __m512i s = _mm512_add_epi64(
      _mm512_set1_epi64((int64_t)base),
      _mm512_setr_epi64((int64_t)(1 * GAMMA), (int64_t)(2 * GAMMA),
                        (int64_t)(3 * GAMMA), (int64_t)(4 * GAMMA),
                        (int64_t)(5 * GAMMA), (int64_t)(6 * GAMMA),
                        (int64_t)(7 * GAMMA), (int64_t)(8 * GAMMA)));
  const __m512i step = _mm512_set1_epi64((int64_t)(8 * GAMMA));
  for (int r = 0; r < 8; r++) {
    u[r] = _mm512_srli_epi64(mix64_x8(s), 11);
    s = _mm512_add_epi64(s, step);
  }
}

/* Bit 8r + l set iff lane l of u[r] is below vt. The eight 8-bit
 * compare masks are joined in mask registers (kunpckbw, kunpckwd,
 * kunpckdq) and the 64-bit result is read out once. */
AVX512_TARGET static inline uint64_t below_avx512(const __m512i *u,
                                                  __m512i vt) {
  __mmask16 m01 = _kunpackb_mask16(_mm512_cmplt_epu64_mask(u[1], vt),
                                   _mm512_cmplt_epu64_mask(u[0], vt));
  __mmask16 m23 = _kunpackb_mask16(_mm512_cmplt_epu64_mask(u[3], vt),
                                   _mm512_cmplt_epu64_mask(u[2], vt));
  __mmask16 m45 = _kunpackb_mask16(_mm512_cmplt_epu64_mask(u[5], vt),
                                   _mm512_cmplt_epu64_mask(u[4], vt));
  __mmask16 m67 = _kunpackb_mask16(_mm512_cmplt_epu64_mask(u[7], vt),
                                   _mm512_cmplt_epu64_mask(u[6], vt));
  __mmask64 m = _kunpackd_mask64(_kunpackw_mask32(m67, m45),
                                 _kunpackw_mask32(m23, m01));
  return _cvtmask64_u64(m);
}

AVX512_TARGET static uint64_t noise_mask_avx512(uint64_t base, uint64_t t) {
  __m512i u[8];
  uniforms_avx512(base, u);
  return below_avx512(u, _mm512_set1_epi64((int64_t)t));
}

AVX512_TARGET static void noise_lanes_avx512(uint64_t base, uint64_t gstride,
                                             intnat width,
                                             const unsigned char *thr,
                                             intnat lanes, value vdst,
                                             intnat pos) {
  uint64_t tmax = load64(thr);
  for (intnat j = 0; j < width; j++, base += gstride) {
    __m512i u[8];
    uniforms_avx512(base, u);
    uint64_t cand = below_avx512(u, _mm512_set1_epi64((int64_t)tmax));
    if (!cand) continue;
    if (few_candidates(cand)) {
      lanes_sparse(base, cand, thr, lanes, vdst, pos + 8 * j);
      continue;
    }
    for (intnat k = 0; k < lanes; k++) {
      uint64_t t = lane_threshold(thr, k, tmax);
      xor_lane(vdst, k, pos + 8 * j,
               t == tmax ? cand
                         : below_avx512(u, _mm512_set1_epi64((int64_t)t)));
    }
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
    for (intnat k = 0; k < lanes; k++) {
      uint64_t t = lane_threshold(thr, k, tmax);
      xor_lane(vdst, k, pos + 8 * j,
               t == tmax ? cand
                         : below_avx2(u, _mm256_set1_epi64x((int64_t)t)));
    }
  }
}

/* ---------------- dispatch ---------------- */

static uint64_t (*noise_mask_fn)(uint64_t, uint64_t) = noise_mask_scalar;
static lanes_fn *noise_lanes_fn = noise_lanes_scalar;
/* Indexed by level: the lanes kernels this CPU can run. */
static lanes_fn *lanes_by_level[4] = {noise_lanes_scalar};

static void init_popcount(void);

__attribute__((constructor)) static void nano_prng_init(void) {
  if (__builtin_cpu_supports("avx2")) {
    noise_mask_fn = noise_mask_avx2;
    noise_lanes_fn = lanes_by_level[1] = noise_lanes_avx2;
  }
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512bw")) {
    noise_mask_fn = noise_mask_avx512;
    noise_lanes_fn = lanes_by_level[2] = noise_lanes_avx512;
  }
  init_popcount();
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
    for (intnat k = 0; k < lanes; k++) {
      uint64_t t = lane_threshold(thr, k, tmax);
      xor_lane(vdst, k, pos + 8 * j,
               t == tmax ? cand : below_neon(u, vdupq_n_u64(t)));
    }
  }
}

#define noise_mask_fn noise_mask_neon
#define noise_lanes_fn noise_lanes_neon

static int simd_level(void) { return 3; }
static lanes_fn *const lanes_by_level[4] = {noise_lanes_scalar, NULL, NULL,
                                            noise_lanes_neon};

#else /* neither x86_64 nor aarch64: scalar only */

#define noise_mask_fn noise_mask_scalar
#define noise_lanes_fn noise_lanes_scalar

static int simd_level(void) { return 0; }
static lanes_fn *const lanes_by_level[4] = {noise_lanes_scalar};

#endif

/* The lanes kernel as every caller runs it, the grid pass and the
 * lanes stub entry alike. One lane runs the single-threshold mask
 * kernel at min(word 0, lane 0), which flips exactly the bits the lanes
 * kernel would and skips its row-maximum pass and per-lane mask loop:
 * 30-43 ns per word against 34-78 ns through the lanes kernel (epsilon
 * 0.001-0.1, 2-vCPU x86-64 AVX-512 host). */
static inline void noise_lanes(uint64_t base, uint64_t gstride, intnat width,
                               const unsigned char *thr, intnat lanes,
                               value vdst, intnat pos) {
  if (lanes == 1) {
    uint64_t t = lane_threshold(thr, 0, load64(thr));
    unsigned char *d = (unsigned char *)Bytes_val(Field(vdst, 0)) + pos;
    for (intnat j = 0; j < width; j++, d += 8, base += gstride)
      store64(d, load64(d) ^ noise_mask_fn(base, t));
  } else
    noise_lanes_fn(base, gstride, width, thr, lanes, vdst, pos);
}

/* ---------------- OCaml entry points: draws ---------------- */

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
 * uniforms still in registers and XORed into its word once
 * (noise_lanes_*). One lane takes noise_lanes's dispatch. */
CAMLprim value nano_prng_xor_noise_lanes_blocked(value vstate, value voffset,
                                                 value vstride, value vwidth,
                                                 value vthr, value vthrpos,
                                                 value vlanes, value vdst,
                                                 value vpos) {
  uint64_t s0 = load64((unsigned char *)Bytes_val(vstate));
  noise_lanes(s0 + (uint64_t)Long_val(voffset) * GAMMA,
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

/* The lanes kernel itself, one lane included, forced to one level
 * (Prng.simd_level's numbering), so tests can pin every level the CPU
 * runs to the OCaml reference. Returns false, drawing nothing, for a
 * level this CPU cannot run. */
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

/* ================= the blocked evaluator (Compiled) ================= */

/* Opcode numbers, the same table as Compiled's op_* constants. */
enum {
  OP_INPUT,
  OP_CONST0,
  OP_CONST1,
  OP_BUF,
  OP_NOT,
  OP_AND2,
  OP_OR2,
  OP_NAND2,
  OP_NOR2,
  OP_XOR2,
  OP_XNOR2,
  OP_MAJ3,
  OP_AND_N,
  OP_OR_N,
  OP_NAND_N,
  OP_NOR_N,
  OP_XOR_N,
  OP_XNOR_N,
  OP_MAJ_N,
  OP_COUNT
};

static const char *const op_names[OP_COUNT] = {
    [OP_INPUT] = "input",   [OP_CONST0] = "const0", [OP_CONST1] = "const1",
    [OP_BUF] = "buf",       [OP_NOT] = "not",       [OP_AND2] = "and2",
    [OP_OR2] = "or2",       [OP_NAND2] = "nand2",   [OP_NOR2] = "nor2",
    [OP_XOR2] = "xor2",     [OP_XNOR2] = "xnor2",   [OP_MAJ3] = "maj3",
    [OP_AND_N] = "and_n",   [OP_OR_N] = "or_n",     [OP_NAND_N] = "nand_n",
    [OP_NOR_N] = "nor_n",   [OP_XOR_N] = "xor_n",   [OP_XNOR_N] = "xnor_n",
    [OP_MAJ_N] = "maj_n"};

/* Words per schedule position in a blocked buffer (Compiled.block). */
#define BLOCK 8

/* Field order of Compiled.prog: int arrays over schedule positions. */
#define PROG_OPS 0  /* opcode */
#define PROG_OFFS 1 /* CSR row starts into fan, n + 1 entries */
#define PROG_FAN 2  /* fanin schedule positions */
#define PROG_RANK 3 /* noise rank, -1 at noise-free positions */
#define PROG_SID 4  /* node id */

/* The elements of an OCaml int array. */
#define INTS(v) ((const value *)&Field((v), 0))
#define ROW(buf, q) ((buf) + (intnat)(q)*BLOCK)

static inline uint64_t *values_of(value vbytes) {
  return (uint64_t *)Bytes_val(vbytes);
}

/* stmt for j < width; the full block has a constant trip count, which
 * the compiler unrolls and vectorizes. */
#define FOR_WORDS(width, stmt)                                                 \
  do {                                                                         \
    if ((width) == BLOCK) {                                                    \
      for (intnat j = 0; j < BLOCK; j++) { stmt; }                             \
    } else {                                                                   \
      for (intnat j = 0; j < (width); j++) { stmt; }                           \
    }                                                                          \
  } while (0)

/* Majority over fanins o..e-1 of word j: each vector's count of ones
 * is summed bit-sliced (plane b holds bit b of all 64 counts), then
 * compared with arity/2 from the top plane down — "count > arity / 2",
 * Gate.eval_word's rule at any arity. */
static uint64_t maj_word(const value *fan, intnat o, intnat e,
                         const uint64_t *src, intnat j) {
  uint64_t plane[64];
  int np = 0;
  for (intnat k = o; k < e; k++) {
    uint64_t carry = ROW(src, Long_val(fan[k]))[j];
    for (int b = 0; carry && b < np; b++) {
      uint64_t c = plane[b] & carry;
      plane[b] ^= carry;
      carry = c;
    }
    if (carry) plane[np++] = carry;
  }
  uint64_t half = (uint64_t)(e - o) / 2, gt = 0, eq = ~UINT64_C(0);
  /* Every count is below 2^np: none exceeds a half with a higher bit. */
  if (np < 64 && (half >> np) != 0) return 0;
  for (int b = np - 1; b >= 0; b--) {
    if ((half >> b) & 1)
      eq &= plane[b];
    else {
      gt |= eq & plane[b];
      eq &= ~plane[b];
    }
  }
  return gt;
}

/* Evaluate position p over width words in each of n buffer pairs:
 * fanins read from src[l], the result written to dst[l] (the same
 * buffer in place). The opcode and fanin positions are decoded once for
 * all n; an input copies through when the buffers differ. A gate's row
 * never overlaps its fanins' rows, so the row pointers are restrict. */
#define EACH_BUFFER(body)                                                      \
  for (intnat l = 0; l < n; l++) {                                             \
    uint64_t *restrict d = ROW(dst[l], p);                                     \
    const uint64_t *s = src[l];                                                \
    (void)s;                                                                   \
    body;                                                                      \
  }

static inline void eval_pos(const value *ops, const value *offs,
                            const value *fan, intnat p, intnat width,
                            uint64_t *const *src, uint64_t *const *dst,
                            intnat n) {
  intnat o = Long_val(offs[p]), e, fa, fb, fc;
  int op = (int)Long_val(ops[p]);
  switch (op) {
  case OP_INPUT:
    for (intnat l = 0; l < n; l++)
      if (src[l] != dst[l])
        memcpy(ROW(dst[l], p), ROW(src[l], p), (size_t)width * 8);
    return;
  case OP_CONST0:
    EACH_BUFFER(FOR_WORDS(width, d[j] = 0));
    return;
  case OP_CONST1:
    EACH_BUFFER(FOR_WORDS(width, d[j] = ~UINT64_C(0)));
    return;
  case OP_BUF:
  case OP_NOT: {
    uint64_t inv = op == OP_NOT ? ~UINT64_C(0) : 0;
    fa = Long_val(fan[o]);
    EACH_BUFFER(const uint64_t *restrict a = ROW(s, fa);
                FOR_WORDS(width, d[j] = a[j] ^ inv));
    return;
  }
  case OP_MAJ3:
    fa = Long_val(fan[o]);
    fb = Long_val(fan[o + 1]);
    fc = Long_val(fan[o + 2]);
    EACH_BUFFER(const uint64_t *restrict a = ROW(s, fa);
                const uint64_t *restrict b = ROW(s, fb);
                const uint64_t *restrict c = ROW(s, fc);
                FOR_WORDS(width, d[j] = (a[j] & b[j]) | (a[j] & c[j]) |
                                        (b[j] & c[j])));
    return;
  case OP_MAJ_N:
    e = Long_val(offs[p + 1]);
    EACH_BUFFER(for (intnat j = 0; j < width; j++) d[j] =
                    maj_word(fan, o, e, s, j));
    return;
  default:
    break;
  }
  if (op <= OP_MAJ3) {
    fa = Long_val(fan[o]);
    fb = Long_val(fan[o + 1]);
#define BINARY(expr)                                                           \
  EACH_BUFFER(const uint64_t *restrict a = ROW(s, fa);                         \
              const uint64_t *restrict b = ROW(s, fb);                         \
              FOR_WORDS(width, d[j] = (expr)))
    switch (op) {
    case OP_AND2: BINARY(a[j] & b[j]); return;
    case OP_OR2: BINARY(a[j] | b[j]); return;
    case OP_NAND2: BINARY(~(a[j] & b[j])); return;
    case OP_NOR2: BINARY(~(a[j] | b[j])); return;
    case OP_XOR2: BINARY(a[j] ^ b[j]); return;
    default: BINARY(~(a[j] ^ b[j])); return; /* xnor2 */
    }
#undef BINARY
  }
  /* The n-ary folds: the identity, every fanin, then the inversion. */
  e = Long_val(offs[p + 1]);
  uint64_t inv = op == OP_NAND_N || op == OP_NOR_N || op == OP_XNOR_N
                     ? ~UINT64_C(0)
                     : 0;
  switch (op) {
  case OP_AND_N:
  case OP_NAND_N:
    EACH_BUFFER(FOR_WORDS(width, d[j] = ~UINT64_C(0));
                for (intnat k = o; k < e; k++) {
                  const uint64_t *restrict a = ROW(s, Long_val(fan[k]));
                  FOR_WORDS(width, d[j] &= a[j]);
                } FOR_WORDS(width, d[j] ^= inv));
    return;
  case OP_OR_N:
  case OP_NOR_N:
    EACH_BUFFER(FOR_WORDS(width, d[j] = 0); for (intnat k = o; k < e; k++) {
      const uint64_t *restrict a = ROW(s, Long_val(fan[k]));
      FOR_WORDS(width, d[j] |= a[j]);
    } FOR_WORDS(width, d[j] ^= inv));
    return;
  default: /* xor_n, xnor_n */
    EACH_BUFFER(FOR_WORDS(width, d[j] = 0); for (intnat k = o; k < e; k++) {
      const uint64_t *restrict a = ROW(s, Long_val(fan[k]));
      FOR_WORDS(width, d[j] ^= a[j]);
    } FOR_WORDS(width, d[j] ^= inv));
    return;
  }
}

/* ---------------- counters: popcount dispatched at load ---------------- */

/* The portable popcount, and the baseline one on aarch64, where the
 * builtin is AdvSIMD's cnt. x86-64 adds a popcnt build below. */
#if defined(__GNUC__) && defined(__aarch64__)
static inline int popcount_base(uint64_t w) { return __builtin_popcountll(w); }
#else
static inline int popcount_base(uint64_t w) {
  w -= (w >> 1) & UINT64_C(0x5555555555555555);
  w = (w & UINT64_C(0x3333333333333333)) +
      ((w >> 2) & UINT64_C(0x3333333333333333));
  w = (w + (w >> 4)) & UINT64_C(0x0F0F0F0F0F0F0F0F);
  return (int)((w * UINT64_C(0x0101010101010101)) >> 56);
}
#endif

#define ALWAYS_INLINE static inline __attribute__((always_inline))

/* The counter, output-error and grid-pass bodies below take the
 * popcount as a parameter; each is compiled once with the portable one
 * and, on x86-64, once more with popcnt, the build chosen at load. */
typedef int popcount_fn(uint64_t);

/* counts[id] += the popcount of a's row over width words (of a xor b
 * when b is not NULL), for an OCaml int array. */
ALWAYS_INLINE void add_count(popcount_fn *pop, value *counts, intnat id,
                             intnat width, const uint64_t *a,
                             const uint64_t *b) {
  intnat s = 0;
  if (b)
    FOR_WORDS(width, s += pop(a[j] ^ b[j]));
  else
    FOR_WORDS(width, s += pop(a[j]));
  counts[id] = Val_long(Long_val(counts[id]) + s);
}

/* Over positions lo..hi-1: ones[id] += popcount of a's row, and
 * toggles[id] += popcount of a xor b; a NULL counter is skipped. */
ALWAYS_INLINE void counts_body(popcount_fn *pop, const value *sid, intnat lo,
                               intnat hi, intnat width, const uint64_t *a,
                               const uint64_t *b, value *ones,
                               value *toggles) {
  for (intnat p = lo; p < hi; p++) {
    intnat id = Long_val(sid[p]);
    if (ones) add_count(pop, ones, id, width, ROW(a, p), NULL);
    if (toggles) add_count(pop, toggles, id, width, ROW(a, p), ROW(b, p));
  }
}

/* Output errors of one block: per lane and output, the popcount of
 * golden xor lane; per lane, the vectors with any output wrong. */
ALWAYS_INLINE void out_errors_body(popcount_fn *pop, const value *out_pos,
                                   intnat n_out, intnat width,
                                   const uint64_t *golden, value vlanes,
                                   intnat lanes, value verrors, value *any) {
  for (intnat k = 0; k < lanes; k++) {
    const uint64_t *v = values_of(Field(vlanes, k));
    value *ek = (value *)&Field(Field(verrors, k), 0);
    uint64_t anyw[BLOCK] = {0};
    for (intnat i = 0; i < n_out; i++) {
      intnat q = Long_val(out_pos[i]);
      const uint64_t *g = ROW(golden, q), *r = ROW(v, q);
      add_count(pop, ek, i, width, g, r);
      FOR_WORDS(width, anyw[j] |= g[j] ^ r[j]);
    }
    add_count(pop, any, k, width, anyw, NULL);
  }
}

/* One replica of a grid over positions lo..hi-1: at each position every
 * lane's row is evaluated (an input row is the golden replica's), then
 * at a noisy position the lanes' flip masks are XORed in from the
 * position's 64 positioned draws per word (noise_lanes). With
 * counters, the first replica's rows are finished: ones[k][id] takes
 * the popcount of first's row, toggles[k][id] that of first xor this
 * replica. */
typedef struct {
  const value *ops, *offs, *fan, *rank, *sid;
  intnat lo, hi, width;
  uint64_t s0;      /* generator state */
  intnat offset;    /* draw offset of noise rank 0 in word 0 */
  uint64_t gstride; /* state step between words */
  const unsigned char *thr;
  intnat lanes;
  const uint64_t *golden;
  value vals, first, ones, toggles; /* first, ones, toggles: [||] or per lane */
} grid_pass;

ALWAYS_INLINE void grid_pass_body(popcount_fn *pop, const grid_pass *g) {
  intnat thr_stride = (g->lanes + 1) * 8, width = g->width;
  int counting = Wosize_val(g->ones) > 0;
  uint64_t *bufs[g->lanes];
  for (intnat k = 0; k < g->lanes; k++) bufs[k] = values_of(Field(g->vals, k));
  for (intnat p = g->lo; p < g->hi; p++) {
    if (Long_val(g->ops[p]) == OP_INPUT) {
      for (intnat k = 0; k < g->lanes; k++)
        memcpy(ROW(bufs[k], p), ROW(g->golden, p), (size_t)width * 8);
    } else
      eval_pos(g->ops, g->offs, g->fan, p, width, bufs, bufs, g->lanes);
    intnat r = Long_val(g->rank[p]);
    if (r >= 0) {
      uint64_t base = g->s0 + (uint64_t)(g->offset + 64 * r) * GAMMA;
      noise_lanes(base, g->gstride, width, g->thr + p * thr_stride, g->lanes,
                  g->vals, p * BLOCK * 8);
    }
    if (counting) {
      intnat id = Long_val(g->sid[p]);
      for (intnat k = 0; k < g->lanes; k++) {
        const uint64_t *first = ROW(values_of(Field(g->first, k)), p);
        add_count(pop, (value *)&Field(Field(g->ones, k), 0), id, width,
                  first, NULL);
        add_count(pop, (value *)&Field(Field(g->toggles, k), 0), id, width,
                  first, ROW(bufs[k], p));
      }
    }
  }
}

/* The builds: the portable popcount everywhere, popcnt added on x86-64
 * and chosen at load when the CPU has it. */
#define POPCOUNT_BUILDS(suffix, attr, pop)                                     \
  attr static void counts_##suffix(const value *sid, intnat lo, intnat hi,    \
                                   intnat width, const uint64_t *a,           \
                                   const uint64_t *b, value *ones,            \
                                   value *toggles) {                          \
    counts_body(pop, sid, lo, hi, width, a, b, ones, toggles);                 \
  }                                                                            \
  attr static void out_errors_##suffix(                                       \
      const value *out_pos, intnat n_out, intnat width,                        \
      const uint64_t *golden, value vlanes, intnat lanes, value verrors,       \
      value *any) {                                                            \
    out_errors_body(pop, out_pos, n_out, width, golden, vlanes, lanes,         \
                    verrors, any);                                             \
  }                                                                            \
  attr static void grid_pass_##suffix(const grid_pass *g) {                   \
    grid_pass_body(pop, g);                                                    \
  }

POPCOUNT_BUILDS(base, , popcount_base)

#if defined(__x86_64__) && defined(__GNUC__)

#define POPCNT_TARGET __attribute__((target("popcnt")))

POPCNT_TARGET ALWAYS_INLINE int popcount_hw(uint64_t w) {
  return __builtin_popcountll(w);
}

POPCOUNT_BUILDS(hw, POPCNT_TARGET, popcount_hw)

static void (*counts_kernel)(const value *, intnat, intnat, intnat,
                             const uint64_t *, const uint64_t *, value *,
                             value *) = counts_base;
static void (*out_errors_kernel)(const value *, intnat, intnat,
                                 const uint64_t *, value, intnat, value,
                                 value *) = out_errors_base;
static void (*grid_pass_kernel)(const grid_pass *) = grid_pass_base;

static void init_popcount(void) {
  if (__builtin_cpu_supports("popcnt")) {
    counts_kernel = counts_hw;
    out_errors_kernel = out_errors_hw;
    grid_pass_kernel = grid_pass_hw;
  }
}

#else

#define counts_kernel counts_base
#define out_errors_kernel out_errors_base
#define grid_pass_kernel grid_pass_base

#endif

/* ---------------- OCaml entry points: evaluator ---------------- */

/* The C number of an opcode name, -1 for none: test_compiled pins it to
 * Compiled's table. */
CAMLprim value nano_kernel_opcode(value vname) {
  for (int op = 0; op < OP_COUNT; op++)
    if (strcmp(String_val(vname), op_names[op]) == 0) return Val_int(op);
  return Val_int(-1);
}

CAMLprim value nano_kernel_block(value unit) {
  (void)unit;
  return Val_int(BLOCK);
}

/* (prog, lo, hi, width, src, dst): evaluate positions lo..hi-1 over
 * width words in schedule order, in place when src == dst. */
CAMLprim value nano_kernel_exec(value vprog, value vlo, value vhi,
                                value vwidth, value vsrc, value vdst) {
  const value *ops = INTS(Field(vprog, PROG_OPS));
  const value *offs = INTS(Field(vprog, PROG_OFFS));
  const value *fan = INTS(Field(vprog, PROG_FAN));
  uint64_t *src = values_of(vsrc), *dst = values_of(vdst);
  intnat width = Long_val(vwidth);
  for (intnat p = Long_val(vlo), hi = Long_val(vhi); p < hi; p++)
    eval_pos(ops, offs, fan, p, width, &src, &dst, 1);
  return Val_unit;
}

CAMLprim value nano_kernel_exec_bytes(value *argv, int argn) {
  (void)argn;
  return nano_kernel_exec(argv[0], argv[1], argv[2], argv[3], argv[4],
                          argv[5]);
}

static value *counters_or_null(value v) {
  return Wosize_val(v) > 0 ? (value *)&Field(v, 0) : NULL;
}

/* (prog, lo, hi, width, a, b, ones, toggles): over positions lo..hi-1,
 * ones[id] += popcount of a's words and toggles[id] += popcount of
 * a xor b; an empty counter array is skipped. */
CAMLprim value nano_kernel_counts(value vprog, value vlo, value vhi,
                                  value vwidth, value va, value vb,
                                  value vones, value vtoggles) {
  counts_kernel(INTS(Field(vprog, PROG_SID)), Long_val(vlo), Long_val(vhi),
                Long_val(vwidth), values_of(va), values_of(vb),
                counters_or_null(vones), counters_or_null(vtoggles));
  return Val_unit;
}

CAMLprim value nano_kernel_counts_bytes(value *argv, int argn) {
  (void)argn;
  return nano_kernel_counts(argv[0], argv[1], argv[2], argv[3], argv[4],
                            argv[5], argv[6], argv[7]);
}

/* (prog, lo, hi, width, state_buf, offset, stride, thr, lanes, golden,
 * vals, first, ones, toggles): the grid pass of one replica over a
 * segment (grid_pass above). offset is the draw offset of noise rank 0
 * in word 0 of the block, stride the draws per word; thr the grid
 * pack, one row of lanes + 1 thresholds per position; first, ones and
 * toggles empty arrays for a pass that counts nothing. */
CAMLprim value nano_kernel_grid_pass(value vprog, value vlo, value vhi,
                                     value vwidth, value vstate,
                                     value voffset, value vstride, value vthr,
                                     value vlanes, value vgolden, value vvals,
                                     value vfirst, value vones,
                                     value vtoggles) {
  grid_pass g = {
      .ops = INTS(Field(vprog, PROG_OPS)),
      .offs = INTS(Field(vprog, PROG_OFFS)),
      .fan = INTS(Field(vprog, PROG_FAN)),
      .rank = INTS(Field(vprog, PROG_RANK)),
      .sid = INTS(Field(vprog, PROG_SID)),
      .lo = Long_val(vlo),
      .hi = Long_val(vhi),
      .width = Long_val(vwidth),
      .s0 = load64((unsigned char *)Bytes_val(vstate)),
      .offset = Long_val(voffset),
      .gstride = (uint64_t)Long_val(vstride) * GAMMA,
      .thr = (const unsigned char *)Bytes_val(vthr),
      .lanes = Long_val(vlanes),
      .golden = values_of(vgolden),
      .vals = vvals,
      .first = vfirst,
      .ones = vones,
      .toggles = vtoggles,
  };
  grid_pass_kernel(&g);
  return Val_unit;
}

CAMLprim value nano_kernel_grid_pass_bytes(value *argv, int argn) {
  (void)argn;
  return nano_kernel_grid_pass(argv[0], argv[1], argv[2], argv[3], argv[4],
                               argv[5], argv[6], argv[7], argv[8], argv[9],
                               argv[10], argv[11], argv[12], argv[13]);
}

/* (out_pos, width, golden, lanes_vals, out_errors, any): for each lane
 * k and output i at schedule position out_pos[i], out_errors[k][i] +=
 * popcount of golden xor lane over width words, and any[k] += the
 * vectors with some output wrong. */
CAMLprim value nano_kernel_out_errors(value vout, value vwidth,
                                      value vgolden, value vlanes,
                                      value verrors, value vany) {
  out_errors_kernel(INTS(vout), (intnat)Wosize_val(vout), Long_val(vwidth),
                    values_of(vgolden), vlanes, (intnat)Wosize_val(vlanes),
                    verrors, (value *)&Field(vany, 0));
  return Val_unit;
}

CAMLprim value nano_kernel_out_errors_bytes(value *argv, int argn) {
  (void)argn;
  return nano_kernel_out_errors(argv[0], argv[1], argv[2], argv[3], argv[4],
                                argv[5]);
}
