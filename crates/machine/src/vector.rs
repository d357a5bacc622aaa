//! Run-time choice of the cache sampler's vector kernels.
//!
//! The sampler's two inner loops have AVX-512 forms that work on eight
//! 64-bit lanes at once: the tag walk over sets of 8 or 16 slots
//! (`SetAssocCache::walk`, in AVX-512F) and the address draw of a
//! behaviour whose tiers are all random (`TaskStream::fill`, in AVX-512F
//! and AVX-512DQ). Which form runs is read from CPUID at run time, once
//! per process (the standard library caches the answer). Every other
//! host, set width and tier mix runs the scalar code, which stays the
//! reference the vector forms are tested against; either way every
//! simulated count is the same, bit for bit.
//!
//! A vector kernel is reached only through a token, [`Avx512F`] or
//! [`Avx512Dq`], that only the CPUID check builds, so no safe caller can
//! run an instruction the host lacks. Building with
//! `RUSTFLAGS="--cfg tiptop_scalar"` compiles the check out: no token is
//! ever built, and the whole sampler runs its scalar code on any host.

use std::fmt;

/// Proof that the host has AVX-512F, built only by [`Avx512F::detect`].
/// Off x86-64, and under `--cfg tiptop_scalar`, it is never built.
#[derive(Clone, Copy, Debug)]
#[cfg_attr(any(not(target_arch = "x86_64"), tiptop_scalar), allow(dead_code))]
pub(crate) struct Avx512F(());

/// Proof that the host has AVX-512F and AVX-512DQ, built only by
/// [`Avx512Dq::detect`]. Off x86-64, and under `--cfg tiptop_scalar`, it
/// is never built.
#[derive(Clone, Copy, Debug)]
#[cfg_attr(any(not(target_arch = "x86_64"), tiptop_scalar), allow(dead_code))]
pub(crate) struct Avx512Dq(());

impl Avx512F {
    /// The token, if CPUID reports AVX-512F.
    #[inline]
    pub(crate) fn detect() -> Option<Self> {
        #[cfg(all(target_arch = "x86_64", not(tiptop_scalar)))]
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Some(Avx512F(()));
        }
        None
    }
}

impl Avx512Dq {
    /// The token, if CPUID reports AVX-512F and AVX-512DQ.
    #[inline]
    pub(crate) fn detect() -> Option<Self> {
        #[cfg(all(target_arch = "x86_64", not(tiptop_scalar)))]
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
        {
            return Some(Avx512Dq(()));
        }
        None
    }
}

/// The kernels the cache sampler runs on this host: a read-only report of
/// the CPUID choice, for logs and benchmark records. Nothing sets it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SamplerKernels {
    /// Tag walks over sets of 8 or 16 slots run in AVX-512F.
    pub avx512_walk: bool,
    /// Draws from behaviours of one to four random tiers, each a power of
    /// two or `o·2ᵏ` bytes with `k ≥ 11`, run eight addresses at a time in
    /// AVX-512F and AVX-512DQ.
    pub avx512_draw: bool,
}

/// The sampler kernels this host runs.
pub fn sampler_kernels() -> SamplerKernels {
    SamplerKernels {
        avx512_walk: Avx512F::detect().is_some(),
        avx512_draw: Avx512Dq::detect().is_some(),
    }
}

impl fmt::Display for SamplerKernels {
    /// `walk avx512f, draw avx512dq`, with `scalar` for a scalar kernel.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let walk = if self.avx512_walk {
            "avx512f"
        } else {
            "scalar"
        };
        let draw = if self.avx512_draw {
            "avx512dq"
        } else {
            "scalar"
        };
        write!(f, "walk {walk}, draw {draw}")
    }
}
