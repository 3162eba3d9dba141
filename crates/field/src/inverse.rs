//! Modular inversion by a binary GCD that steps a word at a time.
//!
//! The division steps of Bernstein and Yang ("Fast constant-time gcd
//! computation and modular inversion", 2019) are a binary GCD on
//! `(f, g) = (p, x)` whose every decision reads only the low bits of `f` and
//! `g`. Sixty-two steps are therefore taken on the low words alone and
//! collected in a 2×2 integer matrix, which is then applied once to the
//! multi-limb `f`, `g` and to the Bézout coefficients `d`, `e` (kept modulo
//! `p`, with `d·x ≡ f` and `e·x ≡ g`). When `g` reaches zero, `f = ±1` and
//! `±d` is the inverse. Variable time: the loop ends as soon as `g` does, and
//! the limb count shrinks with the operands.
//!
//! Multi-limb values are signed, in limbs of 62 bits (the top limb carries
//! the sign), so a matrix entry times a limb, summed over a row, fits `i128`.

/// Mask of a 62-bit limb.
const M62: u64 = u64::MAX >> 2;

/// `2^62` times the transition matrix of 62 division steps: entries have
/// absolute row sums at most `2^62`.
struct Transition {
    u: i64,
    v: i64,
    q: i64,
    r: i64,
}

impl Transition {
    /// The entries `(u, v, q, r)`, widened for the multi-limb updates.
    fn wide(&self) -> (i128, i128, i128, i128) {
        (self.u.into(), self.v.into(), self.q.into(), self.r.into())
    }
}

/// Runs 62 division steps on the low words of `f` (odd) and `g`. Returns the
/// new `eta` (minus the steps' `delta`) and the matrix `t` with
/// `t·(f, g) = 2^62·(f', g')`.
fn divsteps_62(mut eta: i64, f0: u64, g0: u64) -> (i64, Transition) {
    let (mut u, mut v, mut q, mut r) = (1u64, 0u64, 0u64, 1u64);
    let (mut f, mut g) = (f0, g0);
    let mut left = 62u32;
    loop {
        // Steps on an even `g` only halve it; the sentinel bit stops the
        // count at the steps that are left.
        let zeros = (g | (u64::MAX << left)).trailing_zeros();
        g >>= zeros;
        u <<= zeros;
        v <<= zeros;
        eta -= i64::from(zeros);
        left -= zeros;
        if left == 0 {
            break;
        }
        // `g` is odd: add the multiple `w` of `f` that clears as many of its
        // low bits as may be cleared before `eta` changes sign again (and
        // before the 62 steps run out), up to 6 after a swap and 4 otherwise.
        let w = if eta < 0 {
            eta = -eta;
            (f, g) = (g, f.wrapping_neg());
            (u, q) = (q, u.wrapping_neg());
            (v, r) = (r, v.wrapping_neg());
            let limit = (eta + 1).min(i64::from(left)) as u32;
            // −g/f modulo 64: f·(f² − 2) = −1/f there.
            let negated_inverse = f.wrapping_mul(f.wrapping_mul(f).wrapping_sub(2));
            negated_inverse.wrapping_mul(g) & (u64::MAX >> (64 - limit)) & 63
        } else {
            let limit = (eta + 1).min(i64::from(left)) as u32;
            // −g/f modulo 16: f + 8·[f ≡ 3, 5 mod 8] = 1/f there.
            let inverse = f.wrapping_add(((f.wrapping_add(1)) & 4) << 1);
            inverse.wrapping_neg().wrapping_mul(g) & (u64::MAX >> (64 - limit)) & 15
        };
        g = g.wrapping_add(f.wrapping_mul(w));
        q = q.wrapping_add(u.wrapping_mul(w));
        r = r.wrapping_add(v.wrapping_mul(w));
    }
    let t = Transition {
        u: u as i64,
        v: v as i64,
        q: q as i64,
        r: r as i64,
    };
    (eta, t)
}

/// `(d, e) ← t·(d, e) / 2^62 mod p`, for `d`, `e` in `(−2p, p)`: the multiple
/// of `p` that makes the low limb vanish is added before the shift.
fn update_de<const N: usize>(
    d: &mut [i64; N],
    e: &mut [i64; N],
    t: &Transition,
    modulus: &[i64; N],
    modulus_inv62: u64,
) {
    let (u, v, q, r) = t.wide();
    // Adding `p` to a negative input first keeps the outputs in `(−2p, p)`.
    let (sd, se) = (d[N - 1] >> 63, e[N - 1] >> 63);
    let mut md = (t.u & sd) + (t.v & se);
    let mut me = (t.q & sd) + (t.r & se);
    let mut cd = u * i128::from(d[0]) + v * i128::from(e[0]);
    let mut ce = q * i128::from(d[0]) + r * i128::from(e[0]);
    md -= (modulus_inv62
        .wrapping_mul(cd as u64)
        .wrapping_add(md as u64)
        & M62) as i64;
    me -= (modulus_inv62
        .wrapping_mul(ce as u64)
        .wrapping_add(me as u64)
        & M62) as i64;
    let (md, me) = (i128::from(md), i128::from(me));
    cd += i128::from(modulus[0]) * md;
    ce += i128::from(modulus[0]) * me;
    debug_assert!(cd as u64 & M62 == 0 && ce as u64 & M62 == 0);
    cd >>= 62;
    ce >>= 62;
    for i in 1..N {
        let (di, ei, pi) = (i128::from(d[i]), i128::from(e[i]), i128::from(modulus[i]));
        cd += u * di + v * ei + pi * md;
        ce += q * di + r * ei + pi * me;
        d[i - 1] = (cd as u64 & M62) as i64;
        e[i - 1] = (ce as u64 & M62) as i64;
        cd >>= 62;
        ce >>= 62;
    }
    d[N - 1] = cd as i64;
    e[N - 1] = ce as i64;
}

/// `(f, g) ← t·(f, g) / 2^62` on the low `len` limbs; the division is exact.
fn update_fg<const N: usize>(len: usize, f: &mut [i64; N], g: &mut [i64; N], t: &Transition) {
    let (u, v, q, r) = t.wide();
    let mut cf = u * i128::from(f[0]) + v * i128::from(g[0]);
    let mut cg = q * i128::from(f[0]) + r * i128::from(g[0]);
    debug_assert!(cf as u64 & M62 == 0 && cg as u64 & M62 == 0);
    cf >>= 62;
    cg >>= 62;
    for i in 1..len {
        let (fi, gi) = (i128::from(f[i]), i128::from(g[i]));
        cf += u * fi + v * gi;
        cg += q * fi + r * gi;
        f[i - 1] = (cf as u64 & M62) as i64;
        g[i - 1] = (cg as u64 & M62) as i64;
        cf >>= 62;
        cg >>= 62;
    }
    f[len - 1] = cf as i64;
    g[len - 1] = cg as i64;
}

/// Brings `r` in `(−2p, p)`, negated if `sign` is negative, to `[0, p)` with
/// every limb in `[0, 2^62)`.
fn normalize<const N: usize>(r: &mut [i64; N], sign: i64, modulus: &[i64; N]) {
    let carry = |r: &mut [i64; N]| {
        for i in 0..N - 1 {
            r[i + 1] += r[i] >> 62;
            r[i] &= M62 as i64;
        }
    };
    let (add, negate) = (r[N - 1] >> 63, sign >> 63);
    for i in 0..N {
        r[i] += modulus[i] & add;
        r[i] = (r[i] ^ negate) - negate;
    }
    carry(r);
    let add = r[N - 1] >> 63;
    for i in 0..N {
        r[i] += modulus[i] & add;
    }
    carry(r);
}

/// Repacks little-endian limbs of `from` bits each into limbs of `to` bits.
fn repack<const IN: usize, const OUT: usize>(limbs: &[u64; IN], from: u32, to: u32) -> [u64; OUT] {
    let mut out = [0u64; OUT];
    let (mut acc, mut bits, mut next) = (0u128, 0u32, 0usize);
    for &limb in limbs {
        acc |= u128::from(limb) << bits;
        bits += from;
        while bits >= to && next < OUT {
            out[next] = acc as u64 & (u64::MAX >> (64 - to));
            acc >>= to;
            bits -= to;
            next += 1;
        }
    }
    if next < OUT {
        out[next] = acc as u64;
    }
    out
}

/// The inverse of `x` modulo the odd prime `modulus`, both as `L` canonical
/// 64-bit limbs, `0 < x < modulus`. `N` is `L + 1`, the 62-bit limbs that
/// hold values in `(−2p, p)` with their sign; `neg_inv64` is `−p⁻¹ mod 2^64`.
pub(crate) fn invert<const L: usize, const N: usize>(
    x: &[u64; L],
    modulus: &[u64; L],
    neg_inv64: u64,
) -> [u64; L] {
    debug_assert_eq!(N, L + 1);
    let modulus62 = repack::<L, N>(modulus, 64, 62).map(|limb| limb as i64);
    let modulus_inv62 = neg_inv64.wrapping_neg() & M62;
    let mut d = [0i64; N];
    let mut e = [0i64; N];
    e[0] = 1;
    let mut f = modulus62;
    let mut g = repack::<L, N>(x, 64, 62).map(|limb| limb as i64);
    let mut len = N;
    let mut eta = -1i64;
    loop {
        let (next_eta, t) = divsteps_62(eta, f[0] as u64, g[0] as u64);
        eta = next_eta;
        update_de(&mut d, &mut e, &t, &modulus62, modulus_inv62);
        update_fg(len, &mut f, &mut g, &t);
        if g[..len].iter().all(|&limb| limb == 0) {
            break;
        }
        // A top limb that only extends the sign of both values folds into
        // the limb below.
        let (top_f, top_g) = (f[len - 1], g[len - 1]);
        if len > 1 && top_f ^ (top_f >> 63) == 0 && top_g ^ (top_g >> 63) == 0 {
            f[len - 2] |= ((top_f as u64) << 62) as i64;
            g[len - 2] |= ((top_g as u64) << 62) as i64;
            len -= 1;
        }
    }
    normalize(&mut d, f[len - 1], &modulus62);
    repack::<N, L>(&d.map(|limb| limb as u64), 62, 64)
}
