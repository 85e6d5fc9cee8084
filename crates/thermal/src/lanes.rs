//! Portable wide-lane arithmetic for the explicit-SIMD solver kernels.
//!
//! [`W8`] is an 8-lane `f64` vector — the "portable `f64x4`-style
//! chunk" of the kernel optimization campaign (see
//! `docs/KERNEL_OPTIMIZATION_GUIDE.md`), sized to one AVX-512 register
//! (or two AVX registers) so a whole 8-column grid row is one chunk.
//! Three backends compile to the same semantics:
//!
//! * **AVX-512F** (`target_feature = "avx512f"`): one `__m512d` per op;
//! * **AVX** (`target_feature = "avx"`, no AVX-512): two `__m256d`;
//! * **scalar fallback** (everything else): plain `[f64; 8]` loops.
//!
//! # Bit-identity contract
//!
//! Every operation is a *lane-wise IEEE-754 double operation* — the
//! hardware `vaddpd`/`vsubpd`/`vmulpd`/`vdivpd`/`vmaxpd`/`vandpd`
//! instructions round each lane exactly like the corresponding scalar
//! op — so a kernel rewritten over [`W8`] produces bit-identical
//! results to its scalar form **as long as the per-lane operation
//! sequence is unchanged**. The kernels in [`crate::solver`] preserve
//! the scalar fold order per cell; `kernel_identity.rs` asserts it per
//! step against `ThermalModel::step`, and `tadfa-core`'s
//! `ThermalDfa::run_reference`, a whole fixpoint through the naive
//! step, asserts it end to end.
//!
//! `max` deserves one note: [`W8::max`] lowers to `vmaxpd`, which
//! returns its **second** operand when the lanes compare equal or
//! either is NaN. All solver uses compare finite temperatures (or fold
//! absolute deltas against a running maximum), where `vmaxpd` and
//! `f64::max` agree bit for bit.
//!
//! # Masked loads and stores
//!
//! [`W8::load_or`] reads only the lanes its [`M8`] sets and fills the
//! others from a register; [`W8::store_masked`] writes only the set
//! lanes. The stencil pass of grids that are not 8 wide reads each
//! neighbour through them, with a base address one row or one cell
//! before or after the chunk: near the grid's edges some lanes of that
//! address fall outside the buffer. The contract is per lane: the
//! caller guarantees every *set* lane's address is in bounds, and
//! neither operation touches a masked-off lane on any backend.
//! AVX-512 uses the mask registers (a masked-off lane of
//! `vmovupd zmm{k}` neither reads nor faults); AVX uses `vmaskmovpd`,
//! which the ISA defines the same way, plus `vblendvpd` for the
//! fallback; the portable backend tests each lane's bit before it
//! reads or writes. Out-of-bounds base addresses are formed with
//! wrapping pointer arithmetic, which is defined for any offset, and
//! are never dereferenced outside a set lane.

#![allow(clippy::missing_transmute_annotations)]

/// Lane count of [`W8`]. Kernels chunk rows by this.
pub(crate) const LANES: usize = 8;

/// An 8-lane `f64` vector. See the [module docs](self) for backend
/// selection and the bit-identity contract.
#[derive(Copy, Clone, Debug)]
pub(crate) struct W8(Repr);

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
type Repr = core::arch::x86_64::__m512d;

#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx",
    not(target_feature = "avx512f")
))]
type Repr = (core::arch::x86_64::__m256d, core::arch::x86_64::__m256d);

#[cfg(not(all(target_arch = "x86_64", target_feature = "avx")))]
type Repr = [f64; LANES];

/// A lane mask for [`W8::load_or`] and [`W8::store_masked`]: lane `i`
/// is set when bit `i` of [`M8::from_bits`]' argument is. Build masks
/// once (the AVX form is two vectors) and reuse them.
#[derive(Copy, Clone, Debug)]
pub(crate) struct M8(MaskRepr);

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
type MaskRepr = core::arch::x86_64::__mmask8;

#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx",
    not(target_feature = "avx512f")
))]
type MaskRepr = (core::arch::x86_64::__m256i, core::arch::x86_64::__m256i);

#[cfg(not(all(target_arch = "x86_64", target_feature = "avx")))]
type MaskRepr = u8;

// ---------------------------------------------------------------------
// AVX-512F backend: one zmm register per value.
// ---------------------------------------------------------------------
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod imp {
    use super::{Repr, LANES, M8, W8};
    use core::arch::x86_64::*;

    impl M8 {
        #[inline(always)]
        pub(crate) fn from_bits(bits: u8) -> M8 {
            M8(bits)
        }
    }

    impl W8 {
        #[inline(always)]
        pub(crate) fn splat(x: f64) -> W8 {
            // SAFETY: `avx512f` is statically enabled in this cfg.
            unsafe { W8(_mm512_set1_pd(x)) }
        }

        /// Reads lanes from `s[0..8]`.
        ///
        /// # Panics
        ///
        /// Panics if `s` holds fewer than 8 elements.
        #[inline(always)]
        pub(crate) fn read(s: &[f64]) -> W8 {
            let s: &[f64; LANES] = s[..LANES].try_into().expect("W8::read needs 8 lanes");
            // SAFETY: `s` is a valid `&[f64; 8]`, so the unaligned
            // 64-byte load is entirely in bounds; `avx512f` is
            // statically enabled.
            unsafe { W8(_mm512_loadu_pd(s.as_ptr())) }
        }

        /// Writes lanes over `s[0..8]`.
        ///
        /// # Panics
        ///
        /// Panics if `s` holds fewer than 8 elements.
        #[inline(always)]
        pub(crate) fn write(self, s: &mut [f64]) {
            let s: &mut [f64; LANES] = (&mut s[..LANES]).try_into().expect("W8::write needs 8");
            // SAFETY: `s` is a valid `&mut [f64; 8]`, so the unaligned
            // 64-byte store is entirely in bounds; `avx512f` is
            // statically enabled.
            unsafe { _mm512_storeu_pd(s.as_mut_ptr(), self.0) }
        }

        /// Reads lanes from `ptr[0..8]` without a bounds check — the
        /// hot-path load of the width-specialized whole-grid pass.
        ///
        /// # Safety
        ///
        /// `ptr` must be valid for reads of 8 `f64`s (64 bytes);
        /// alignment is not required (unaligned load).
        #[inline(always)]
        pub(crate) unsafe fn load(ptr: *const f64) -> W8 {
            // SAFETY: caller guarantees 8 readable lanes; `avx512f` is
            // statically enabled in this cfg.
            unsafe { W8(_mm512_loadu_pd(ptr)) }
        }

        /// Writes lanes to `ptr[0..8]` without a bounds check.
        ///
        /// # Safety
        ///
        /// `ptr` must be valid for writes of 8 `f64`s (64 bytes);
        /// alignment is not required (unaligned store).
        #[inline(always)]
        pub(crate) unsafe fn store(self, ptr: *mut f64) {
            // SAFETY: caller guarantees 8 writable lanes; `avx512f` is
            // statically enabled in this cfg.
            unsafe { _mm512_storeu_pd(ptr, self.0) }
        }

        /// Lane `i` reads `ptr + i` where `mask` is set and takes
        /// `other`'s lane `i` elsewhere (`vmovupd` under a merge mask).
        /// A masked-off lane is never read, and its fault is suppressed.
        ///
        /// # Safety
        ///
        /// `ptr.wrapping_add(i)` must be valid for reads of one `f64`
        /// for every set lane `i`; no other lane's address need be.
        #[inline(always)]
        pub(crate) unsafe fn load_or(ptr: *const f64, mask: M8, other: W8) -> W8 {
            // SAFETY: the caller guarantees every set lane is readable;
            // the masked load touches no other lane; `avx512f` is
            // statically enabled in this cfg.
            unsafe { W8(_mm512_mask_loadu_pd(other.0, mask.0, ptr)) }
        }

        /// Writes lane `i` to `ptr + i` where `mask` is set; a
        /// masked-off lane is never written.
        ///
        /// # Safety
        ///
        /// `ptr.wrapping_add(i)` must be valid for writes of one `f64`
        /// for every set lane `i`.
        #[inline(always)]
        pub(crate) unsafe fn store_masked(self, ptr: *mut f64, mask: M8) {
            // SAFETY: as `load_or`, for writes.
            unsafe { _mm512_mask_storeu_pd(ptr, mask.0, self.0) }
        }

        #[inline(always)]
        pub(crate) fn from_array(a: [f64; LANES]) -> W8 {
            W8::read(&a)
        }

        // Only the unit tests and the narrower backends' shifts consume
        // arrays; keep the API uniform across backends.
        #[allow(dead_code)]
        #[inline(always)]
        pub(crate) fn to_array(self) -> [f64; LANES] {
            let mut out = [0.0; LANES];
            self.write(&mut out);
            out
        }

        #[inline(always)]
        pub(crate) fn add(self, o: W8) -> W8 {
            // SAFETY (here and below): lane-wise arithmetic on values;
            // `avx512f` is statically enabled.
            unsafe { W8(_mm512_add_pd(self.0, o.0)) }
        }

        #[inline(always)]
        pub(crate) fn sub(self, o: W8) -> W8 {
            unsafe { W8(_mm512_sub_pd(self.0, o.0)) }
        }

        #[inline(always)]
        pub(crate) fn mul(self, o: W8) -> W8 {
            unsafe { W8(_mm512_mul_pd(self.0, o.0)) }
        }

        #[inline(always)]
        pub(crate) fn div(self, o: W8) -> W8 {
            unsafe { W8(_mm512_div_pd(self.0, o.0)) }
        }

        /// Lane-wise maximum (`vmaxpd`): on equal or NaN lanes the
        /// **other** operand wins, matching `self_lane.max(other_lane)`
        /// on the finite data the solvers feed it.
        #[inline(always)]
        pub(crate) fn max(self, o: W8) -> W8 {
            unsafe { W8(_mm512_max_pd(self.0, o.0)) }
        }

        /// Lane-wise absolute value (sign-bit clear — exact).
        #[inline(always)]
        pub(crate) fn abs(self) -> W8 {
            unsafe {
                let mask = _mm512_castsi512_pd(_mm512_set1_epi64(0x7fff_ffff_ffff_ffffu64 as i64));
                W8(_mm512_and_pd(self.0, mask))
            }
        }

        /// `[a0, a0, a1, …, a6]` — the left-neighbour vector of a row's
        /// first chunk, with the edge lane reading the cell itself (its
        /// conductance lane is masked to `0.0`).
        #[inline(always)]
        pub(crate) fn shift_head_dup(self) -> W8 {
            unsafe {
                let idx = _mm512_set_epi64(6, 5, 4, 3, 2, 1, 0, 0);
                W8(_mm512_permutexvar_pd(idx, self.0))
            }
        }

        /// `[a1, …, a7, a7]` — the right-neighbour vector of a row's
        /// last chunk, edge lane duplicated (conductance masked).
        #[inline(always)]
        pub(crate) fn shift_tail_dup(self) -> W8 {
            unsafe {
                let idx = _mm512_set_epi64(7, 7, 6, 5, 4, 3, 2, 1);
                W8(_mm512_permutexvar_pd(idx, self.0))
            }
        }

        /// Horizontal maximum of all 8 lanes. `max` is exactly
        /// associative and commutative on non-NaN values, so the
        /// reduction order cannot change the result.
        #[inline(always)]
        pub(crate) fn reduce_max(self) -> f64 {
            unsafe { _mm512_reduce_max_pd(self.0) }
        }
    }

    // Quiet the "type alias is never used directly" path on this cfg.
    const _: fn() -> Repr = || unsafe { _mm512_setzero_pd() };
}

// ---------------------------------------------------------------------
// AVX backend: two ymm registers per value.
// ---------------------------------------------------------------------
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx",
    not(target_feature = "avx512f")
))]
mod imp {
    use super::{LANES, M8, W8};
    use core::arch::x86_64::*;

    impl M8 {
        /// Each half is four 64-bit lanes of all ones (set) or zeros,
        /// the form `vmaskmovpd` and `vblendvpd` read.
        #[inline(always)]
        pub(crate) fn from_bits(bits: u8) -> M8 {
            let lane = |i: u32| -i64::from(bits >> i & 1);
            // SAFETY: `avx` is statically enabled in this cfg.
            unsafe {
                M8((
                    _mm256_set_epi64x(lane(3), lane(2), lane(1), lane(0)),
                    _mm256_set_epi64x(lane(7), lane(6), lane(5), lane(4)),
                ))
            }
        }
    }

    impl W8 {
        #[inline(always)]
        pub(crate) fn splat(x: f64) -> W8 {
            // SAFETY: `avx` is statically enabled in this cfg.
            unsafe { W8((_mm256_set1_pd(x), _mm256_set1_pd(x))) }
        }

        /// Reads lanes from `s[0..8]`.
        ///
        /// # Panics
        ///
        /// Panics if `s` holds fewer than 8 elements.
        #[inline(always)]
        pub(crate) fn read(s: &[f64]) -> W8 {
            let s: &[f64; LANES] = s[..LANES].try_into().expect("W8::read needs 8 lanes");
            // SAFETY: `s` is a valid `&[f64; 8]`; both unaligned
            // 32-byte loads are in bounds; `avx` is statically enabled.
            unsafe {
                W8((
                    _mm256_loadu_pd(s.as_ptr()),
                    _mm256_loadu_pd(s.as_ptr().add(4)),
                ))
            }
        }

        /// Writes lanes over `s[0..8]`.
        ///
        /// # Panics
        ///
        /// Panics if `s` holds fewer than 8 elements.
        #[inline(always)]
        pub(crate) fn write(self, s: &mut [f64]) {
            let s: &mut [f64; LANES] = (&mut s[..LANES]).try_into().expect("W8::write needs 8");
            // SAFETY: `s` is a valid `&mut [f64; 8]`; both unaligned
            // 32-byte stores are in bounds; `avx` is statically enabled.
            unsafe {
                _mm256_storeu_pd(s.as_mut_ptr(), self.0 .0);
                _mm256_storeu_pd(s.as_mut_ptr().add(4), self.0 .1);
            }
        }

        /// Reads lanes from `ptr[0..8]` without a bounds check.
        ///
        /// # Safety
        ///
        /// `ptr` must be valid for reads of 8 `f64`s (64 bytes);
        /// alignment is not required (unaligned loads).
        #[inline(always)]
        pub(crate) unsafe fn load(ptr: *const f64) -> W8 {
            // SAFETY: caller guarantees 8 readable lanes; `avx` is
            // statically enabled in this cfg.
            unsafe { W8((_mm256_loadu_pd(ptr), _mm256_loadu_pd(ptr.add(4)))) }
        }

        /// Writes lanes to `ptr[0..8]` without a bounds check.
        ///
        /// # Safety
        ///
        /// `ptr` must be valid for writes of 8 `f64`s (64 bytes);
        /// alignment is not required (unaligned stores).
        #[inline(always)]
        pub(crate) unsafe fn store(self, ptr: *mut f64) {
            // SAFETY: caller guarantees 8 writable lanes; `avx` is
            // statically enabled in this cfg.
            unsafe {
                _mm256_storeu_pd(ptr, self.0 .0);
                _mm256_storeu_pd(ptr.add(4), self.0 .1);
            }
        }

        /// Lane `i` reads `ptr + i` where `mask` is set and takes
        /// `other`'s lane `i` elsewhere: `vmaskmovpd` per half (a
        /// masked-off lane is never read and cannot fault), then
        /// `vblendvpd` to merge `other`.
        ///
        /// # Safety
        ///
        /// `ptr.wrapping_add(i)` must be valid for reads of one `f64`
        /// for every set lane `i`; no other lane's address need be.
        #[inline(always)]
        pub(crate) unsafe fn load_or(ptr: *const f64, mask: M8, other: W8) -> W8 {
            let (lo, hi) = mask.0;
            // SAFETY: the caller guarantees every set lane is readable;
            // the masked loads touch no other lane (the high half's
            // address is formed by wrapping arithmetic, so it need not
            // be in bounds when its mask is clear); `avx` is statically
            // enabled in this cfg.
            unsafe {
                let a = _mm256_maskload_pd(ptr, lo);
                let b = _mm256_maskload_pd(ptr.wrapping_add(4), hi);
                W8((
                    _mm256_blendv_pd(other.0 .0, a, _mm256_castsi256_pd(lo)),
                    _mm256_blendv_pd(other.0 .1, b, _mm256_castsi256_pd(hi)),
                ))
            }
        }

        /// Writes lane `i` to `ptr + i` where `mask` is set; a
        /// masked-off lane is never written.
        ///
        /// # Safety
        ///
        /// `ptr.wrapping_add(i)` must be valid for writes of one `f64`
        /// for every set lane `i`.
        #[inline(always)]
        pub(crate) unsafe fn store_masked(self, ptr: *mut f64, mask: M8) {
            // SAFETY: as `load_or`, for writes.
            unsafe {
                _mm256_maskstore_pd(ptr, mask.0 .0, self.0 .0);
                _mm256_maskstore_pd(ptr.wrapping_add(4), mask.0 .1, self.0 .1);
            }
        }

        #[inline(always)]
        pub(crate) fn from_array(a: [f64; LANES]) -> W8 {
            W8::read(&a)
        }

        #[inline(always)]
        pub(crate) fn to_array(self) -> [f64; LANES] {
            let mut out = [0.0; LANES];
            self.write(&mut out);
            out
        }

        #[inline(always)]
        pub(crate) fn add(self, o: W8) -> W8 {
            // SAFETY (here and below): lane-wise arithmetic on values;
            // `avx` is statically enabled.
            unsafe {
                W8((
                    _mm256_add_pd(self.0 .0, o.0 .0),
                    _mm256_add_pd(self.0 .1, o.0 .1),
                ))
            }
        }

        #[inline(always)]
        pub(crate) fn sub(self, o: W8) -> W8 {
            unsafe {
                W8((
                    _mm256_sub_pd(self.0 .0, o.0 .0),
                    _mm256_sub_pd(self.0 .1, o.0 .1),
                ))
            }
        }

        #[inline(always)]
        pub(crate) fn mul(self, o: W8) -> W8 {
            unsafe {
                W8((
                    _mm256_mul_pd(self.0 .0, o.0 .0),
                    _mm256_mul_pd(self.0 .1, o.0 .1),
                ))
            }
        }

        #[inline(always)]
        pub(crate) fn div(self, o: W8) -> W8 {
            unsafe {
                W8((
                    _mm256_div_pd(self.0 .0, o.0 .0),
                    _mm256_div_pd(self.0 .1, o.0 .1),
                ))
            }
        }

        /// Lane-wise maximum (`vmaxpd`) — see the AVX-512 backend note.
        #[inline(always)]
        pub(crate) fn max(self, o: W8) -> W8 {
            unsafe {
                W8((
                    _mm256_max_pd(self.0 .0, o.0 .0),
                    _mm256_max_pd(self.0 .1, o.0 .1),
                ))
            }
        }

        /// Lane-wise absolute value (sign-bit clear — exact).
        #[inline(always)]
        pub(crate) fn abs(self) -> W8 {
            unsafe {
                let mask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fff_ffff_ffff_ffffu64 as i64));
                W8((
                    _mm256_and_pd(self.0 .0, mask),
                    _mm256_and_pd(self.0 .1, mask),
                ))
            }
        }

        /// `[a0, a0, a1, …, a6]` via a round trip through an array —
        /// only the first chunk of a row pays it.
        #[inline(always)]
        pub(crate) fn shift_head_dup(self) -> W8 {
            let a = self.to_array();
            W8::from_array([a[0], a[0], a[1], a[2], a[3], a[4], a[5], a[6]])
        }

        /// `[a1, …, a7, a7]` via a round trip through an array.
        #[inline(always)]
        pub(crate) fn shift_tail_dup(self) -> W8 {
            let a = self.to_array();
            W8::from_array([a[1], a[2], a[3], a[4], a[5], a[6], a[7], a[7]])
        }

        /// Horizontal maximum of all 8 lanes (order-free: exact max).
        #[inline(always)]
        pub(crate) fn reduce_max(self) -> f64 {
            let a = self.to_array();
            let m = a[0].max(a[1]).max(a[2]).max(a[3]);
            m.max(a[4]).max(a[5]).max(a[6]).max(a[7])
        }
    }
}

// ---------------------------------------------------------------------
// Scalar fallback: plain arrays, vectorizable by LLVM where it can.
// ---------------------------------------------------------------------
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx")))]
mod imp {
    use super::{LANES, M8, W8};

    impl M8 {
        #[inline(always)]
        pub(crate) fn from_bits(bits: u8) -> M8 {
            M8(bits)
        }
    }

    macro_rules! lanewise {
        ($name:ident, $op:tt) => {
            #[inline(always)]
            pub(crate) fn $name(self, o: W8) -> W8 {
                let mut out = [0.0; LANES];
                for i in 0..LANES {
                    out[i] = self.0[i] $op o.0[i];
                }
                W8(out)
            }
        };
    }

    impl W8 {
        #[inline(always)]
        pub(crate) fn splat(x: f64) -> W8 {
            W8([x; LANES])
        }

        /// Reads lanes from `s[0..8]`.
        ///
        /// # Panics
        ///
        /// Panics if `s` holds fewer than 8 elements.
        #[inline(always)]
        pub(crate) fn read(s: &[f64]) -> W8 {
            W8(s[..LANES].try_into().expect("W8::read needs 8 lanes"))
        }

        /// Writes lanes over `s[0..8]`.
        ///
        /// # Panics
        ///
        /// Panics if `s` holds fewer than 8 elements.
        #[inline(always)]
        pub(crate) fn write(self, s: &mut [f64]) {
            s[..LANES].copy_from_slice(&self.0);
        }

        /// Reads lanes from `ptr[0..8]` without a bounds check.
        ///
        /// # Safety
        ///
        /// `ptr` must be valid for reads of 8 `f64`s (64 bytes).
        #[inline(always)]
        pub(crate) unsafe fn load(ptr: *const f64) -> W8 {
            // SAFETY: caller guarantees 8 readable lanes.
            unsafe { W8(core::ptr::read_unaligned(ptr as *const [f64; LANES])) }
        }

        /// Writes lanes to `ptr[0..8]` without a bounds check.
        ///
        /// # Safety
        ///
        /// `ptr` must be valid for writes of 8 `f64`s (64 bytes).
        #[inline(always)]
        pub(crate) unsafe fn store(self, ptr: *mut f64) {
            // SAFETY: caller guarantees 8 writable lanes.
            unsafe { core::ptr::write_unaligned(ptr as *mut [f64; LANES], self.0) }
        }

        /// Lane `i` reads `ptr + i` where `mask` is set and takes
        /// `other`'s lane `i` elsewhere, one lane at a time; a
        /// masked-off lane's address is formed but never read.
        ///
        /// # Safety
        ///
        /// `ptr.wrapping_add(i)` must be valid for reads of one `f64`
        /// for every set lane `i`; no other lane's address need be.
        #[inline(always)]
        pub(crate) unsafe fn load_or(ptr: *const f64, mask: M8, other: W8) -> W8 {
            let mut out = other.0;
            for (i, lane) in out.iter_mut().enumerate() {
                if mask.0 >> i & 1 == 1 {
                    // SAFETY: the caller guarantees set lanes are
                    // readable.
                    *lane = unsafe { ptr.wrapping_add(i).read_unaligned() };
                }
            }
            W8(out)
        }

        /// Writes lane `i` to `ptr + i` where `mask` is set; a
        /// masked-off lane is never written.
        ///
        /// # Safety
        ///
        /// `ptr.wrapping_add(i)` must be valid for writes of one `f64`
        /// for every set lane `i`.
        #[inline(always)]
        pub(crate) unsafe fn store_masked(self, ptr: *mut f64, mask: M8) {
            for (i, &lane) in self.0.iter().enumerate() {
                if mask.0 >> i & 1 == 1 {
                    // SAFETY: the caller guarantees set lanes are
                    // writable.
                    unsafe { ptr.wrapping_add(i).write_unaligned(lane) };
                }
            }
        }

        #[inline(always)]
        pub(crate) fn from_array(a: [f64; LANES]) -> W8 {
            W8(a)
        }

        // Only the unit tests consume arrays here; keep the API uniform
        // across backends.
        #[allow(dead_code)]
        #[inline(always)]
        pub(crate) fn to_array(self) -> [f64; LANES] {
            self.0
        }

        lanewise!(add, +);
        lanewise!(sub, -);
        lanewise!(mul, *);
        lanewise!(div, /);

        /// Lane-wise maximum via `f64::max`.
        #[inline(always)]
        pub(crate) fn max(self, o: W8) -> W8 {
            W8(core::array::from_fn(|i| self.0[i].max(o.0[i])))
        }

        /// Lane-wise absolute value.
        #[inline(always)]
        pub(crate) fn abs(self) -> W8 {
            W8(self.0.map(f64::abs))
        }

        /// `[a0, a0, a1, …, a6]`.
        #[inline(always)]
        pub(crate) fn shift_head_dup(self) -> W8 {
            let a = self.0;
            W8([a[0], a[0], a[1], a[2], a[3], a[4], a[5], a[6]])
        }

        /// `[a1, …, a7, a7]`.
        #[inline(always)]
        pub(crate) fn shift_tail_dup(self) -> W8 {
            let a = self.0;
            W8([a[1], a[2], a[3], a[4], a[5], a[6], a[7], a[7]])
        }

        /// Horizontal maximum of all 8 lanes (order-free: exact max).
        #[inline(always)]
        pub(crate) fn reduce_max(self) -> f64 {
            let a = self.0;
            let m = a[0].max(a[1]).max(a[2]).max(a[3]);
            m.max(a[4]).max(a[5]).max(a[6]).max(a[7])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{LANES, M8, W8};

    // No 0/0 lane: hardware division of zeros yields a NaN whose sign
    // differs from the const-folded scalar's — NaN bits are outside the
    // contract (the solvers never divide zeros).
    const A: [f64; LANES] = [1.5, -2.25, 3.0, 0.0, -0.0, 1e300, 1e-300, -7.125];
    const B: [f64; LANES] = [0.5, 2.0, -3.0, -2.0, 4.0, 1e299, 2e-300, 7.0];

    fn binop(f: impl Fn(W8, W8) -> W8, g: impl Fn(f64, f64) -> f64) {
        let got = f(W8::from_array(A), W8::from_array(B)).to_array();
        for i in 0..LANES {
            let want = g(A[i], B[i]);
            assert_eq!(
                got[i].to_bits(),
                want.to_bits(),
                "lane {i}: {} vs {want}",
                got[i]
            );
        }
    }

    #[test]
    fn lanewise_ops_are_bit_identical_to_scalar() {
        binop(W8::add, |a, b| a + b);
        binop(W8::sub, |a, b| a - b);
        binop(W8::mul, |a, b| a * b);
        binop(W8::div, |a, b| a / b);
    }

    #[test]
    fn signed_zeros_are_preserved() {
        // The masked-edge trick relies on `x − (+0.0) == x` bit for bit,
        // including `x == −0.0`.
        let z = W8::from_array([0.0, -0.0, 1.0, -1.0, 0.0, -0.0, 2.0, -2.0]);
        let plus = W8::splat(0.0);
        let got = z.sub(plus).to_array();
        let want = z.to_array();
        for i in 0..LANES {
            assert_eq!(got[i].to_bits(), want[i].to_bits(), "lane {i}");
        }
        // And the masked term itself: (t − t)·0.0 is exactly +0.0.
        let t = W8::from_array([-3.0, 300.0, -0.0, 0.0, 1e10, -1e10, 5.5, -5.5]);
        let masked = t.sub(t).mul(plus).to_array();
        for (i, m) in masked.iter().enumerate() {
            assert_eq!(m.to_bits(), 0.0f64.to_bits(), "lane {i}");
        }
    }

    #[test]
    fn max_matches_scalar_on_distinct_finite_lanes() {
        // Ties (±0.0) are backend-defined; the solvers only fold
        // distinct finite values — assert exactly that set.
        let a = [1.0, -1.0, 3.5, -3.5, 2.0, -2.0, 1e10, -1e10];
        let b = [0.5, -0.5, 4.5, -4.5, -7.0, 7.0, 1e9, -1e9];
        let got = W8::from_array(a).max(W8::from_array(b)).to_array();
        for i in 0..LANES {
            assert_eq!(got[i].to_bits(), a[i].max(b[i]).to_bits(), "lane {i}");
        }
    }

    #[test]
    fn abs_clears_sign_bit_exactly() {
        let got = W8::from_array(A).abs().to_array();
        for i in 0..LANES {
            assert_eq!(got[i].to_bits(), A[i].abs().to_bits(), "lane {i}");
        }
    }

    #[test]
    fn shifts_duplicate_edges() {
        let v = W8::from_array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(
            v.shift_head_dup().to_array(),
            [0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        );
        assert_eq!(
            v.shift_tail_dup().to_array(),
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 7.0]
        );
    }

    #[test]
    fn reduce_max_scans_all_lanes() {
        let v = W8::from_array([-5.0, 1.0, 9.5, 3.0, -9.5, 2.0, 0.0, 8.0]);
        assert_eq!(v.reduce_max(), 9.5);
        assert_eq!(W8::splat(-3.25).reduce_max(), -3.25);
    }

    #[test]
    fn masked_loads_and_stores_touch_only_set_lanes() {
        let fallback = W8::splat(-1.0);
        let src = [10.0, 11.0, 12.0];
        // The three set lanes are the whole buffer: lanes 3..8 lie past
        // its end and must never be read.
        let got = unsafe { W8::load_or(src.as_ptr(), M8::from_bits(0b0000_0111), fallback) };
        assert_eq!(
            got.to_array(),
            [10.0, 11.0, 12.0, -1.0, -1.0, -1.0, -1.0, -1.0]
        );
        // A mask with holes, and a base before the buffer: lane 0 would
        // be one element before `src`.
        let base = src.as_ptr().wrapping_sub(1);
        let got = unsafe { W8::load_or(base, M8::from_bits(0b0000_0110), fallback) };
        assert_eq!(
            got.to_array(),
            [-1.0, 10.0, 11.0, -1.0, -1.0, -1.0, -1.0, -1.0]
        );
        // Stores write the set lanes and nothing else, on both halves.
        let mut dst = [0.0; 5];
        let v = W8::from_array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        unsafe { v.store_masked(dst.as_mut_ptr(), M8::from_bits(0b0001_0101)) };
        assert_eq!(dst, [1.0, 0.0, 3.0, 0.0, 5.0]);
        let mut dst = [0.0; 8];
        unsafe { v.store_masked(dst.as_mut_ptr(), M8::from_bits(0b1010_0000)) };
        assert_eq!(dst, [0.0, 0.0, 0.0, 0.0, 0.0, 6.0, 0.0, 8.0]);
    }

    #[test]
    fn read_write_round_trip() {
        let mut buf = [0.0; 10];
        W8::read(&A).write(&mut buf[1..9]);
        assert_eq!(&buf[1..9], &A[..]);
        assert_eq!(buf[0], 0.0);
        assert_eq!(buf[9], 0.0);
    }
}
