"""BLS12-381 pairing curve, pure Python.

The module owns:

* the field tower Fq2 = Fq[u]/(u^2+1), Fq6 = Fq2[v]/(v^3 - xi) with
  xi = u+1, Fq12 = Fq6[w]/(w^2 - v), as free functions over nested tuples
  of ints, every coefficient in [0, P);
* G1 = E(Fq): y^2 = x^3 + 4 and G2 on the sextic twist E'(Fq2):
  y^2 = x^3 + 4(u+1), as affine pairs (None for infinity), and GT, the
  order-r subgroup of Fq12*, with the generators G1_GEN, G2_GEN and
  GT_GEN = e(G1_GEN, G2_GEN) as constants;
* one scalar multiplication routine shared by G1, G2 and GT;
* the one pairing entry, pairing_product: the ate pairing as one shared
  Miller loop over its pairs and one final exponentiation, whose outputs
  are the cube of the textbook pairing;
* the codecs, uncompressed points (range, curve and subgroup checks) and
  Fq12 elements, and GT membership, gt_is_valid.

Each section below states its mechanism.
"""

from __future__ import annotations

from itertools import zip_longest

# Base field prime, subgroup order, and |z| for the curve parameter z < 0.
P = 0x1A0111EA397FE69A4B1BA7B6434BACD764774B84F38512BF6730D2A0F6B0F6241EABFFFEB153FFFFB9FEFFFFFFFFAAAB
R = 0x73EDA753299D7D483339D80809A1D80553BDA402FFFE5BFEFFFFFFFF00000001
BLS_X = 0xD201000000010000

G1_GEN = (
    0x17F1D3A73197D7942695638C4FA9AC0FC3688C4F9774B905A14E3A3F171BAC586C55E83FF97A1AEFFB3AF00ADB22C6BB,
    0x08B3F481E3AAA0F1A09E30ED741D8AE4FCF5E095D5D00AF600DB18CB2C04B3EDD03CC744A2888AE40CAA232946C5E7E1,
)
G2_GEN = (
    (
        0x024AA2B2F08F0A91260805272DC51051C6E47AD4FA403B02B4510B647AE3D1770BAC0326A805BBEFD48056C8C121BDB8,
        0x13E02B6052719F607DACD3A088274F65596BD0D09920B61AB5DA61BBDC7F5049334CF11213945D57E5AC7D055D042B7E,
    ),
    (
        0x0CE5D527727D6E118CC9CDC6DA2E351AADFD9BAA8CBDD3A76D429A695160D12C923AC9CC3BACA289E193548608B82801,
        0x0606C4A02EA734CC32ACD2B02BC28B99CB3E287E85A763AF267492AB572E99AB3F370D275CEC1DA1AAA9075FF05F79BE,
    ),
)

# e(G1_GEN, G2_GEN) in pairing_product's convention (the cube of the
# textbook pairing, see final_exponentiation): GT's generator, a constant so
# that no process runs a pairing to make it
GT_GEN = (
    (
        (
            0x1250EBD871FC0A92A7B2D83168D0D727272D441BEFA15C503DD8E90CE98DB3E7B6D194F60839C508A84305AACA1789B6,
            0x089A1C5B46E5110B86750EC6A532348868A84045483C92B7AF5AF689452EAFABF1A8943E50439F1D59882A98EAA0170F,
        ),
        (
            0x1368BB445C7C2D209703F239689CE34C0378A68E72A6B3B216DA0E22A5031B54DDFF57309396B38C881C4C849EC23E87,
            0x193502B86EDB8857C273FA075A50512937E0794E1E65A7617C90D8BD66065B1FFFE51D7A579973B1315021EC3C19934F,
        ),
        (
            0x01B2F522473D171391125BA84DC4007CFBF2F8DA752F7C74185203FCCA589AC719C34DFFBBAAD8431DAD1C1FB597AAA5,
            0x018107154F25A764BD3C79937A45B84546DA634B8F6BE14A8061E55CCEBA478B23F7DACAA35C8CA78BEAE9624045B4B6,
        ),
    ),
    (
        (
            0x19F26337D205FB469CD6BD15C3D5A04DC88784FBB3D0B2DBDEA54D43B2B73F2CBB12D58386A8703E0F948226E47EE89D,
            0x06FBA23EB7C5AF0D9F80940CA771B6FFD5857BAAF222EB95A7D2809D61BFE02E1BFD1B68FF02F0B8102AE1C2D5D5AB1A,
        ),
        (
            0x11B8B424CD48BF38FCEF68083B0B0EC5C81A93B330EE1A677D0D15FF7B984E8978EF48881E32FAC91B93B47333E2BA57,
            0x03350F55A7AEFCD3C31B4FCB6CE5771CC6A0E9786AB5973320C806AD360829107BA810C5A09FFDD9BE2291A0C25A99A2,
        ),
        (
            0x04C581234D086A9902249B64728FFD21A189E87935A954051C7CDBA7B3872629A4FAFC05066245CB9108F0242D0FE3EF,
            0x0F41E58663BF08CF068672CBD01A7EC73BACA4D72CA93544DEFF686BFD6DF543D48EAA24AFE47E1EFDE449383B676631,
        ),
    ),
)

B1 = 4  # G1 curve constant

# ---------------------------------------------------------------------------
# Fq2: a + b*u, u^2 = -1.  Elements are (a, b) with 0 <= a, b < P.

FQ2_ZERO = (0, 0)
FQ2_ONE = (1, 0)
XI = (1, 1)  # the cubic/sextic non-residue u + 1


def fq2_add(x, y):
    return ((x[0] + y[0]) % P, (x[1] + y[1]) % P)


def fq2_sub(x, y):
    return ((x[0] - y[0]) % P, (x[1] - y[1]) % P)


def fq2_neg(x):
    return (-x[0] % P, -x[1] % P)


def fq2_conj(x):
    return (x[0], -x[1] % P)


def fq2_mul(x, y):
    # Karatsuba: 3 base multiplications
    a, b = x
    c, d = y
    t0 = a * c
    t1 = b * d
    t2 = (a + b) * (c + d)
    return ((t0 - t1) % P, (t2 - t0 - t1) % P)


def fq2_sqr(x):
    a, b = x
    # (a+b)(a-b), 2ab
    return ((a + b) * (a - b) % P, 2 * a * b % P)


def fq2_mul_xi(x):
    # multiply by u + 1
    a, b = x
    return ((a - b) % P, (a + b) % P)


def fq2_inv(x):
    a, b = x
    norm_inv = pow(a * a + b * b, -1, P)
    return (a * norm_inv % P, -b * norm_inv % P)


# ---------------------------------------------------------------------------
# Fq6: a + b*v + c*v^2 over Fq2, v^3 = xi.
#
# The Fq6 and Fq12 products reduce lazily (Aranha et al., Eurocrypt 2011):
# each kernel unpacks its arguments once, keeps its Karatsuba products and
# their sums as unreduced ints, and reduces each output coefficient mod P
# once.  xi (r + s u) = (r - s) + (r + s) u, so a product by xi is two sums.

FQ6_ZERO = (FQ2_ZERO, FQ2_ZERO, FQ2_ZERO)
FQ6_ONE = (FQ2_ONE, FQ2_ZERO, FQ2_ZERO)


def fq6_neg(x):
    return (fq2_neg(x[0]), fq2_neg(x[1]), fq2_neg(x[2]))


def _fq6_mul_wide(x, y):
    """x * y as six unreduced ints, the Fq coefficients of (c0 + c1 u) +
    (c2 + c3 u) v + (c4 + c5 u) v^2.  Karatsuba over Fq2 (6 Fq2 products)
    and over Fq (3 products each); x and y may be unreduced.

    Below, x = x0 + x1 v + x2 v^2 with x0 = a0 + a1 u, x1 = a2 + a3 u and
    x2 = a4 + a5 u, and y likewise over the b's.
    """
    (a0, a1), (a2, a3), (a4, a5) = x
    (b0, b1), (b2, b3), (b4, b5) = y
    # (v0, v1), (v2, v3), (v4, v5) = x0 y0, x1 y1, x2 y2
    t0 = a0 * b0
    t1 = a1 * b1
    v0 = t0 - t1
    v1 = (a0 + a1) * (b0 + b1) - t0 - t1
    t0 = a2 * b2
    t1 = a3 * b3
    v2 = t0 - t1
    v3 = (a2 + a3) * (b2 + b3) - t0 - t1
    t0 = a4 * b4
    t1 = a5 * b5
    v4 = t0 - t1
    v5 = (a4 + a5) * (b4 + b5) - t0 - t1
    # c0 + c1 u = x0 y0 + xi ((x1 + x2)(y1 + y2) - x1 y1 - x2 y2)
    s0, s1, r0, r1 = a2 + a4, a3 + a5, b2 + b4, b3 + b5
    t0 = s0 * r0
    t1 = s1 * r1
    m0 = t0 - t1 - v2 - v4
    m1 = (s0 + s1) * (r0 + r1) - t0 - t1 - v3 - v5
    # c2 + c3 u = (x0 + x1)(y0 + y1) - x0 y0 - x1 y1 + xi x2 y2
    s0, s1, r0, r1 = a0 + a2, a1 + a3, b0 + b2, b1 + b3
    t0 = s0 * r0
    t1 = s1 * r1
    c2 = t0 - t1 - v0 - v2 + v4 - v5
    c3 = (s0 + s1) * (r0 + r1) - t0 - t1 - v1 - v3 + v4 + v5
    # c4 + c5 u = (x0 + x2)(y0 + y2) - x0 y0 - x2 y2 + x1 y1
    s0, s1, r0, r1 = a0 + a4, a1 + a5, b0 + b4, b1 + b5
    t0 = s0 * r0
    t1 = s1 * r1
    c4 = t0 - t1 - v0 - v4 + v2
    c5 = (s0 + s1) * (r0 + r1) - t0 - t1 - v1 - v5 + v3
    return v0 + m0 - m1, v1 + m0 + m1, c2, c3, c4, c5


def fq6_mul(x, y):
    c0, c1, c2, c3, c4, c5 = _fq6_mul_wide(x, y)
    return ((c0 % P, c1 % P), (c2 % P, c3 % P), (c4 % P, c5 % P))


def fq6_inv(x):
    a0, a1, a2 = x
    c0 = fq2_sub(fq2_sqr(a0), fq2_mul_xi(fq2_mul(a1, a2)))
    c1 = fq2_sub(fq2_mul_xi(fq2_sqr(a2)), fq2_mul(a0, a1))
    c2 = fq2_sub(fq2_sqr(a1), fq2_mul(a0, a2))
    t = fq2_inv(
        fq2_add(fq2_mul(a0, c0), fq2_mul_xi(fq2_add(fq2_mul(a2, c1), fq2_mul(a1, c2))))
    )
    return (fq2_mul(c0, t), fq2_mul(c1, t), fq2_mul(c2, t))


# ---------------------------------------------------------------------------
# Fq12: a + b*w over Fq6, w^2 = v.  With x = a + b w in storage order, the
# product by v of an Fq6 element (e0, e1, e2) is (xi e2, e0, e1).

FQ12_ONE = (FQ6_ONE, FQ6_ZERO)
FQ12_ZERO = (FQ6_ZERO, FQ6_ZERO)


# the twelve Fq coefficients in storage order: the words of the encoding and of a packed GT point
def _fq12_coeffs(f):
    return [c for half in f for pair in half for c in pair]


def _fq12_of(c):
    return (((c[0], c[1]), (c[2], c[3]), (c[4], c[5])), ((c[6], c[7]), (c[8], c[9]), (c[10], c[11])))


def fq12_mul(x, y):
    # Karatsuba over Fq6: (a + b w)(c + d w) = ac + v bd + ((a + b)(c + d) - ac - bd) w
    a, b = x
    c, d = y
    (a0, a1), (a2, a3), (a4, a5) = a
    (b0, b1), (b2, b3), (b4, b5) = b
    (c0, c1), (c2, c3), (c4, c5) = c
    (d0, d1), (d2, d3), (d4, d5) = d
    e0, e1, e2, e3, e4, e5 = _fq6_mul_wide(a, c)
    f0, f1, f2, f3, f4, f5 = _fq6_mul_wide(b, d)
    g0, g1, g2, g3, g4, g5 = _fq6_mul_wide(
        ((a0 + b0, a1 + b1), (a2 + b2, a3 + b3), (a4 + b4, a5 + b5)),
        ((c0 + d0, c1 + d1), (c2 + d2, c3 + d3), (c4 + d4, c5 + d5)),
    )
    return (
        (((e0 + f4 - f5) % P, (e1 + f4 + f5) % P), ((e2 + f0) % P, (e3 + f1) % P),
         ((e4 + f2) % P, (e5 + f3) % P)),
        (((g0 - e0 - f0) % P, (g1 - e1 - f1) % P), ((g2 - e2 - f2) % P, (g3 - e3 - f3) % P),
         ((g4 - e4 - f4) % P, (g5 - e5 - f5) % P)),
    )


def fq12_sqr(x):
    # complex squaring: (a + b w)^2 = (a + b)(a + v b) - (1 + v) ab + 2ab w
    a, b = x
    (a0, a1), (a2, a3), (a4, a5) = a
    (b0, b1), (b2, b3), (b4, b5) = b
    t0, t1, t2, t3, t4, t5 = _fq6_mul_wide(a, b)
    s0, s1, s2, s3, s4, s5 = _fq6_mul_wide(
        ((a0 + b0, a1 + b1), (a2 + b2, a3 + b3), (a4 + b4, a5 + b5)),
        ((a0 + b4 - b5, a1 + b4 + b5), (a2 + b0, a3 + b1), (a4 + b2, a5 + b3)),
    )
    return (
        (((s0 - t0 - t4 + t5) % P, (s1 - t1 - t4 - t5) % P), ((s2 - t2 - t0) % P, (s3 - t3 - t1) % P),
         ((s4 - t4 - t2) % P, (s5 - t5 - t3) % P)),
        ((2 * t0 % P, 2 * t1 % P), (2 * t2 % P, 2 * t3 % P), (2 * t4 % P, 2 * t5 % P)),
    )


def _fq6_mul_01_wide(x, c0, c1):
    """x * (c0 + c1 v) as six unreduced ints, as _fq6_mul_wide does it for a
    dense y: 5 Fq2 products.  x, c0 and c1 may be unreduced."""
    (a0, a1), (a2, a3), (a4, a5) = x
    b0, b1 = c0
    b2, b3 = c1
    # x0 c0, x1 c1, x2 c0 and x2 c1
    t0 = a0 * b0
    t1 = a1 * b1
    v0 = t0 - t1
    v1 = (a0 + a1) * (b0 + b1) - t0 - t1
    t0 = a2 * b2
    t1 = a3 * b3
    v2 = t0 - t1
    v3 = (a2 + a3) * (b2 + b3) - t0 - t1
    s = a4 + a5
    t0 = a4 * b0
    t1 = a5 * b1
    w0 = t0 - t1
    w1 = s * (b0 + b1) - t0 - t1
    t0 = a4 * b2
    t1 = a5 * b3
    r0 = t0 - t1
    r1 = s * (b2 + b3) - t0 - t1
    # the v coefficient, (x0 + x1)(c0 + c1) - x0 c0 - x1 c1
    s0, s1, q0, q1 = a0 + a2, a1 + a3, b0 + b2, b1 + b3
    t0 = s0 * q0
    t1 = s1 * q1
    m0 = t0 - t1 - v0 - v2
    m1 = (s0 + s1) * (q0 + q1) - t0 - t1 - v1 - v3
    # x0 c0 + xi x2 c1 (v^3 = xi), the v coefficient, x1 c1 + x2 c0
    return v0 + r0 - r1, v1 + r0 + r1, m0, m1, v2 + w0, v3 + w1


def fq12_mul_014(x, c0, c1, c4):
    """x * (c0 + c1 v + c4 v w), the sparse shape of a Miller-loop line.

    Numbering the six Fq2 coefficients of an Fq12 element 0..5 in storage
    order ((0, 1, 2), (3, 4, 5)), the line is nonzero in slots 0, 1 and 4.
    Karatsuba over Fq6 as in fq12_mul, with the line's halves c0 + c1 v and
    c4 v and their sum: 13 Fq2 products, 39 base multiplications against
    54 for a dense product, and one reduction per output coefficient.
    """
    a, b = x
    (a0, a1), (a2, a3), (a4, a5) = a
    (b0, b1), (b2, b3), (b4, b5) = b
    d0, d1 = c4
    e0, e1, e2, e3, e4, e5 = _fq6_mul_01_wide(a, c0, c1)
    # b c4 v = xi b2 c4 + b0 c4 v + b1 c4 v^2
    s = d0 + d1
    t0 = b4 * d0
    t1 = b5 * d1
    r0 = t0 - t1
    r1 = (b4 + b5) * s - t0 - t1
    f0, f1 = r0 - r1, r0 + r1
    t0 = b0 * d0
    t1 = b1 * d1
    f2 = t0 - t1
    f3 = (b0 + b1) * s - t0 - t1
    t0 = b2 * d0
    t1 = b3 * d1
    f4 = t0 - t1
    f5 = (b2 + b3) * s - t0 - t1
    g0, g1, g2, g3, g4, g5 = _fq6_mul_01_wide(
        ((a0 + b0, a1 + b1), (a2 + b2, a3 + b3), (a4 + b4, a5 + b5)), c0, (c1[0] + d0, c1[1] + d1))
    return (
        (((e0 + f4 - f5) % P, (e1 + f4 + f5) % P), ((e2 + f0) % P, (e3 + f1) % P),
         ((e4 + f2) % P, (e5 + f3) % P)),
        (((g0 - e0 - f0) % P, (g1 - e1 - f1) % P), ((g2 - e2 - f2) % P, (g3 - e3 - f3) % P),
         ((g4 - e4 - f4) % P, (g5 - e5 - f5) % P)),
    )


def fq12_conj(x):
    return (x[0], fq6_neg(x[1]))


def fq12_inv(x):
    # 1/(a + b w) = (a - b w) / (a^2 - v b^2)
    a, b = x
    e0, e1, e2, e3, e4, e5 = _fq6_mul_wide(a, a)
    f0, f1, f2, f3, f4, f5 = _fq6_mul_wide(b, b)
    t = fq6_inv((((e0 - f4 + f5) % P, (e1 - f4 - f5) % P), ((e2 - f0) % P, (e3 - f1) % P),
                 ((e4 - f2) % P, (e5 - f3) % P)))
    return (fq6_mul(a, t), fq6_neg(fq6_mul(b, t)))


# ---------------------------------------------------------------------------
# Cyclotomic subgroup helpers.  After the easy part of the final
# exponentiation every element is unitary, conj(f) = f^-1, which makes
# negative NAF digits free and enables the compressed squaring below.


def _fq4_sqr_wide(a0, a1, b0, b1):
    # (A + B s)^2 in Fq2[s]/(s^2 - xi), A = a0 + a1 u, B = b0 + b1 u, as the
    # unreduced (A^2 + xi B^2, (A + B)^2 - A^2 - B^2)
    ar = (a0 + a1) * (a0 - a1)
    ai = 2 * a0 * a1
    br = (b0 + b1) * (b0 - b1)
    bi = 2 * b0 * b1
    s0 = a0 + b0
    s1 = a1 + b1
    return ar + br - bi, ai + br + bi, (s0 + s1) * (s0 - s1) - ar - br, 2 * s0 * s1 - ai - bi


def fq12_cyclo_sqr(f):
    """Granger-Scott squaring (PKC 2010), valid only in the cyclotomic
    subgroup: three Fq4 squarings t, and each output coefficient is
    3 t - 2 z or 3 t + 2 z for the input coefficient z it replaces."""
    ((x0, y0), (x4, y4), (x3, y3)), ((x2, y2), (x1, y1), (x5, y5)) = f
    a0, a1, b0, b1 = _fq4_sqr_wide(x0, y0, x1, y1)
    c0, c1, d0, d1 = _fq4_sqr_wide(x2, y2, x3, y3)
    e0, e1, g0, g1 = _fq4_sqr_wide(x4, y4, x5, y5)
    return (
        (((3 * a0 - 2 * x0) % P, (3 * a1 - 2 * y0) % P), ((3 * c0 - 2 * x4) % P, (3 * c1 - 2 * y4) % P),
         ((3 * e0 - 2 * x3) % P, (3 * e1 - 2 * y3) % P)),
        (((3 * (g0 - g1) + 2 * x2) % P, (3 * (g0 + g1) + 2 * y2) % P),
         ((3 * b0 + 2 * x1) % P, (3 * b1 + 2 * y1) % P), ((3 * d0 + 2 * x5) % P, (3 * d1 + 2 * y5) % P)),
    )


def _naf(e, width):
    # Least-significant-first signed digits, odd digits in (-2^(w-1), 2^(w-1))
    digits = []
    while e:
        if e & 1:
            d = e % (1 << width)
            if d >= 1 << (width - 1):
                d -= 1 << width
            e -= d
        else:
            d = 0
        digits.append(d)
        e >>= 1
    return digits


# Frobenius maps on Fq12 act coefficient-wise: the w^k coordinate picks up
# gamma_n^k with gamma_n = xi^((p^n-1)/6), and odd powers also conjugate
# the Fq2 coefficient.  psi = twist o Frobenius o untwist on G2 maps (x, y)
# to (conj(x) PSI_X, conj(y) PSI_Y) with PSI_X = 1/xi^((p-1)/3) and PSI_Y =
# 1/xi^((p-1)/2), so gamma_1 = PSI_X / PSI_Y and gamma_2 = gamma_1^(p+1) =
# gamma_1 conj(gamma_1).
PSI_X = (0, 0x1A0111EA397FE699EC02408663D4DE85AA0D857D89759AD4897D29650FB85F9B409427EB4F49FFFD8BFD00000000AAAD)
PSI_Y = (0x135203E60180A68EE2E9C448D77A2CD91C3DEDD930B1CF60EF396489F61EB45E304466CF3E67FA0AF1EE7B04121BDEA2,
         0x06AF0E0437FF400B6831E36D6BD17FFE48395DABC2D3435E77F76E17009241C5EE67992F72EC05F4C81084FBEDE3CC09)


_GAMMA1 = [FQ2_ONE, fq2_mul(PSI_X, fq2_inv(PSI_Y))]
for _ in range(4):
    _GAMMA1.append(fq2_mul(_GAMMA1[-1], _GAMMA1[1]))
_GAMMA2 = [fq2_mul(g, fq2_conj(g)) for g in _GAMMA1]
# gamma_3 = gamma_1 gamma_2^p, and gamma_2 lies in Fq
_GAMMA3 = [fq2_mul(a, b) for a, b in zip(_GAMMA1, _GAMMA2)]


def fq12_frob1(f, g=_GAMMA1):
    # f^p, or f^(p^3) with g = _GAMMA3
    (a0, a1, a2), (b0, b1, b2) = f
    return (
        (fq2_conj(a0), fq2_mul(fq2_conj(a1), g[2]), fq2_mul(fq2_conj(a2), g[4])),
        (fq2_mul(fq2_conj(b0), g[1]), fq2_mul(fq2_conj(b1), g[3]), fq2_mul(fq2_conj(b2), g[5])),
    )


def fq12_frob2(f):
    g = _GAMMA2
    (a0, a1, a2), (b0, b1, b2) = f
    return (
        (a0, fq2_mul(a1, g[2]), fq2_mul(a2, g[4])),
        (fq2_mul(b0, g[1]), fq2_mul(b1, g[3]), fq2_mul(b2, g[5])),
    )


HARD_EXP = (P**4 - P**2 + 1) // R

# The hard part is computed as f^(3*hard) via the curve-parameter chain
#   3*hard = (z-1)^2 (z+p) (z^2+p^2-1) + 3,
# a fixed cube of the usual value, which is still a non-degenerate bilinear
# pairing since gcd(3, r) = 1.
assert 3 * HARD_EXP == (-BLS_X - 1) ** 2 * (-BLS_X + P) * (BLS_X**2 + P**2 - 1) + 3


def _exp_neg_z(f):
    # f^z for the (negative) curve parameter: conj(f^|z|), f unitary
    return fq12_conj(fq12_pow_cyclo(f, BLS_X))


def final_exponentiation(f):
    # easy part: f^((p^6-1)(p^2+1)) lands in the cyclotomic subgroup
    f = fq12_mul(fq12_conj(f), fq12_inv(f))
    f = fq12_mul(fq12_frob2(f), f)
    # hard part
    t = fq12_mul(_exp_neg_z(f), fq12_conj(f))          # f^(z-1)
    t = fq12_mul(_exp_neg_z(t), fq12_conj(t))          # ^(z-1) again
    t = fq12_mul(_exp_neg_z(t), fq12_frob1(t))         # ^(z+p)
    t = fq12_mul(
        fq12_mul(_exp_neg_z(_exp_neg_z(t)), fq12_frob2(t)),
        fq12_conj(t),
    )                                                  # ^(z^2+p^2-1)
    return fq12_mul(t, fq12_mul(fq12_cyclo_sqr(f), f))  # * f^3


# ---------------------------------------------------------------------------
# Scalar multiplication, one driver for G1, G2 and GT.  Each source group
# brings its Jacobian doubling, its one mixed addition (Jacobian + affine,
# EFD madd-2007-bl), its negation, its field's multiplication and inversion
# and the powers of its endomorphism; the conversion to affine, addition and
# the scalar driver are shared.  GT brings the cyclotomic squaring, the
# product and conjugation, and its elements need no conversion.
#
# Short powers are a signed binary chain: a k no longer than the group's
# radix runs left to right over its NAF (width 2) on the base itself, one
# doubling per digit below the top and one mixed addition of the base or
# its negation per nonzero digit, and builds no table.  The membership
# tests, the GT check and the final exponentiation raise the fixed, sparse
# radix (|z| has 6 nonzero digits, z^2 17), where a table's two inversions
# do not pay.  Its chain digits are made once, at import: 127 doublings and
# 16 mixed additions on G1, 63 and 5 on G2 and GT.  A membership test
# inverts nothing: it compares the chain's Jacobian (X, Y, Z) with the endo
# image (x, y) as X = x Z^2 and Y = y Z^3, so it costs its chain, endo and
# four products.  eval_t's x^n is dense from attr_max 9 or so; a NAF has a
# nonzero digit per three bits against binary's one per two, so a dense x^n
# still beats the table; a plain binary chain does not.  A longer
# k is split by the group's endomorphism: endo acts on the r-torsion as
# [radix], and R < radix^4 on G2 and GT (radix = |z|) and R < radix^2 on G1
# (radix = z^2), since R = z^4 - z^2 + 1, so [k]B is the sum of
# endo^i([d_i]B) over the base-radix digits d_i of k mod R.  The digits run
# as one interleaved wNAF over the bases endo^i(B) or, for a base with a
# table, over its signed comb (Lim-Lee, Crypto 1994; Hamburg, "Fast and
# compact elliptic-curve cryptography", 2012).  A comb of h teeth e =
# ceil(bits(radix) / h) bits apart, B_t = [2^(t e)]B, holds the 2^(h-1)
# affine points B_(h-1) + sum_(t<h-1) +-B_t, entry m taking +B_t for each
# set bit t of m.  An odd d below 2^(h e) is the sum of s_j 2^j with every
# s_j = +-1 (2 b_j - 1 for the bits b_j of (d + 2^(h e) - 1) / 2), so column
# j, the teeth s_(t e + j), is one entry, negated and its index complemented
# when the top tooth is -1.  A power makes each digit odd (an even d runs as
# d + 1, and one closing mixed addition of -endo^i(B) takes the base back
# off), then runs the e columns from the top: one doubling per column after
# the first, and per column and digit one mixed addition of the entry carried
# by endo^i, a precomputed map.  A comb has h = 8 (128 entries), but the G1
# generator's (an equal decoded point included) h = 12 (2048) and the G2
# generator's h = 11 (1024): a power is e - 1 doublings and at most one
# mixed addition per column and digit plus one per even digit, 10 and 24
# for the G1 generator, 5 and 28 for G2's, 15 and 34 for any other G1
# base, 7 and 36 on G2 and GT.  Each entry is packed into one int of 384-bit
# words, which takes 40 % less memory than its nested tuples on G1 and over
# half less on G2 and GT, and unpacks in a few shifts.  Every base earns its
# table by use: each group keeps one
# _kept LRU dict, keyed by the base, of the split-path uses of its recent
# bases.  The _HOT_USES-th use builds the table, so a one-shot process with
# a few powers of a base never pays for one, and past _HOT_TABLES tables the
# least recently used one goes.  A process that earns _HOT_TABLES other
# tables while its generator lies idle drops the generator's, and the
# generator's next _HOT_USES-th split-path use builds it again.
# Nothing cached here is ever serialized.

_COMB_TEETH = 8  # any base's comb but a generator's: 2^7 entries
# an 8-tooth comb takes about 2.2 split wNAF powers to build on G1, 2.1 on
# G2 and 1.7 on GT; the G1 generator's about 22 and the G2 generator's 18
_HOT_USES = 5
# tables held per group, the generator's among them: an 8-tooth comb takes
# 17 KiB on G1, 30 KiB on G2 and 81 KiB on GT, the G1 generator's 272 KiB
# and the G2 generator's 240 KiB
_HOT_TABLES = 24
_WORD = (1 << 384) - 1  # a coordinate of a packed point; P < 2^381


class _Group:
    """The point arithmetic of one source group, as the drivers use it."""

    identity = None  # affine infinity

    def __init__(self, gen, gen_teeth, zero, one, dbl, madd, neg, fmul, finv, endos, radix, pack, unpack):
        self.zero = zero
        self.one = one  # the Z coordinate of an affine point
        self.inf = (zero, one, zero)  # Jacobian infinity
        self.dbl = dbl
        self.madd = madd
        self.neg = neg
        self.fmul = fmul
        self.finv = finv
        # endo acts on the r-torsion as [radix]; endos[i] is endo^i, on affine points
        self.endos = (lambda q: q, *endos)
        self.endo = endos[0]
        self.radix = radix
        self.chain = _chain_digits(radix)  # the fixed chain of [radix], made once
        self.pack = pack  # an affine point as one int of 384-bit words, for the tables
        self.unpack = unpack
        self.gen = gen
        self.gen_teeth = gen_teeth  # the generator's comb; any other base's has _COMB_TEETH
        self.hot = {}  # bases -> split-path uses, or their table

    def lift(self, pt):  # affine, not infinity, to the driver's Jacobian form
        return (*pt, self.one)

    def to_affine(self, points):
        """Jacobian points to affine ones (None for infinity) with one
        inversion (Montgomery's trick)."""
        mul, zero = self.fmul, self.zero
        prefix = []
        acc = self.one
        for _, _, Z in points:
            prefix.append(acc)
            if Z != zero:
                acc = mul(acc, Z)
        inv = self.finv(acc)
        out = [None] * len(points)
        for i in range(len(points) - 1, -1, -1):
            X, Y, Z = points[i]
            if Z != zero:
                zinv = mul(inv, prefix[i])
                inv = mul(inv, Z)
                z2 = mul(zinv, zinv)
                out[i] = (mul(X, z2), mul(mul(Y, z2), zinv))
        return out

    def add(self, p, q):
        if p is None:
            return q
        return self.to_affine([self.madd(self.lift(p), q)])[0]

    def endo_is_radix(self, pt):
        """endo(pt) == [radix]pt for pt on the curve, not infinity: the fixed
        chain's Jacobian (X, Y, Z) against endo(pt) = (x, y) as X = x Z^2 and
        Y = y Z^3, which inverts nothing.  Every coordinate is reduced, and
        Jacobian infinity (0, 1, 0) fails the Y comparison."""
        X, Y, Z = _chain(self, pt, self.chain)
        x, y = self.endo(pt)
        mul = self.fmul
        zz = mul(Z, Z)
        return X == mul(x, zz) and Y == mul(y, mul(zz, Z))


class _Cyclotomic(_Group):
    """GT for the scalar driver: an element is its own working and output
    form, and the accumulator starts at one, whose square and product are
    skipped.  endo = conj o frob1 sends f to f^(-p), and p = z (mod r), so
    it acts on GT as [|z|]; its square is frob2 and its cube conj o frob3."""

    identity = FQ12_ONE

    def __init__(self):
        self.inf, self.radix, self.hot, self.gen = FQ12_ONE, BLS_X, {}, None
        self.chain = _chain_digits(BLS_X)
        self.pack = lambda f: _pack(_fq12_coeffs(f))
        self.unpack = lambda v: _fq12_of([v >> s & _WORD for s in range(0, 12 * 384, 384)])
        self.dbl = lambda f: f if f is FQ12_ONE else fq12_cyclo_sqr(f)
        self.madd = lambda f, h: h if f is FQ12_ONE else fq12_mul(f, h)
        self.neg = fq12_conj
        self.endos = (lambda f: f, lambda f: fq12_conj(fq12_frob1(f)), fq12_frob2,
                      lambda f: fq12_conj(fq12_frob1(f, _GAMMA3)))
        self.endo = self.endos[1]
        self.lift = self.to_affine = lambda x: x


def _pack(words):
    """Coordinates below 2^384 as one int, the first in the lowest word."""
    return sum(w << 384 * i for i, w in enumerate(words))


def _comb(g, base, teeth):
    """base's signed comb of the given number of teeth, packed: entry m is
    B_(h-1) + sum_(t<h-1) +-B_t, +B_t for each set bit t of m.  Entry 0
    takes every lower tooth off B_(h-1), and setting bit t adds 2 B_t, so
    each entry is one mixed addition, and all of them share one inversion."""
    spacing = -(-g.radix.bit_length() // teeth)
    jac = [g.lift(base)]
    for _ in range((teeth - 1) * spacing):
        jac.append(g.dbl(jac[-1]))
    # B_0 .. B_(h-1), then 2 B_0 .. 2 B_(h-2)
    pts = g.to_affine(jac[::spacing] + jac[1::spacing])
    entries = [g.lift(pts[teeth - 1])]
    for b in pts[: teeth - 1]:
        entries[0] = g.madd(entries[0], g.neg(b))
    for two in pts[teeth:]:
        entries += [g.madd(q, two) for q in entries]
    table = g.to_affine(entries)
    table[:] = map(g.pack, table)  # in place, in a list of its exact size on G1 and G2
    return table


def _kept(cache, key, build, uses, cap):
    """Count one use of key in cache, an LRU dict of key -> its use count
    or its value, and return the value once key has earned one: its
    uses-th use runs build(key).  At most cap values and 2 cap keys are
    held.  Past the first bound the least recently used value goes, past
    the second the least recently used count, so keys that are still
    counting never push out a value."""
    value = cache.pop(key, 0)
    if isinstance(value, int):
        value += 1
        if value == uses:
            values = [k for k, v in cache.items() if not isinstance(v, int)]
            if len(values) >= cap:
                del cache[values[0]]
            value = build(key)
        elif len(cache) >= 2 * cap:
            del cache[next(k for k, v in cache.items() if isinstance(v, int))]
    cache[key] = value
    return None if isinstance(value, int) else value


def _table(g, pt):
    """pt's comb on the split path, or None while pt has not earned one:
    kept by use, with the generator's teeth for the group's generator (an
    equal decoded point included) and _COMB_TEETH for any other base."""
    teeth = g.gen_teeth if pt == g.gen else _COMB_TEETH
    return _kept(g.hot, pt, lambda b: _comb(g, b, teeth), _HOT_USES, _HOT_TABLES)


def _chain_digits(k):
    """The steps of k's chain, most significant first: its NAF (width 2)
    below the top digit, a top 1 0 -1 taken as 1 1 (one doubling fewer)."""
    digits = _naf(k, 2)
    if digits[-3:] == [-1, 0, 1]:
        digits[-3:] = [1, 1]
    return digits[-2::-1]


def _chain(g, pt, digits):
    """The Jacobian accumulator of [k]pt (pt^k on GT) for k's chain digits:
    from pt, one doubling per digit and one mixed addition of pt or its
    negation per nonzero digit."""
    dbl, madd, neg, acc = g.dbl, g.madd, g.neg(pt), g.lift(pt)
    for d in digits:
        acc = dbl(acc)
        if d:
            acc = madd(acc, pt if d > 0 else neg)
    return acc


def _mul(g, pt, k):
    """[k]pt on G1 or G2 in affine coordinates (None for infinity), or
    pt^k on GT.

    Short path: a k no longer than g.radix is a NAF chain on pt, which
    holds for any point on the curve and any cyclotomic Fq12 element; the
    final exponentiation and gt_is_valid rely on it, and the membership
    tests run the same chain.  Such a k never counts toward a table.  Split
    path: a longer k is reduced mod R and written in base g.radix, and the
    digits run over pt's comb or one interleaved wNAF.  The split holds
    only for pt in the r-torsion, where endo acts as [radix]: every caller
    passes scheme outputs or decoded, subgroup-checked points; on GT,
    pairing outputs, decodes checked by gt_is_valid, and their products
    and powers.
    """
    if k < 0:
        pt, k = g.neg(pt), -k
    if pt == g.identity or k == 0:
        return g.identity
    if k == 1:  # the reconstruction coefficients of AND/OR policies are ones
        return pt
    if k.bit_length() <= g.radix.bit_length():
        # a NAF chain on pt itself, with no table
        return g.to_affine([_chain(g, pt, g.chain if k == g.radix else _chain_digits(k))])[0]
    dbl, madd = g.dbl, g.madd
    k, digits = k % R, []
    while k:
        k, d = divmod(k, g.radix)
        digits.append(d)
    acc, neg = g.inf, g.neg
    table = _table(g, pt)
    if table is not None:
        # each digit made odd and read as spacing columns of teeth, top
        # column first: the bits of tooth t are the t-th spacing-bit block
        # from the bottom, so a column's index, tooth t at bit t, is every
        # spacing-th character of the digit's bit string
        unpack, half = g.unpack, len(table) - 1
        teeth = half.bit_length() + 1
        spacing = -(-g.radix.bit_length() // teeth)
        width, runs, fixes = teeth * spacing, [], []
        for endo, d in zip(g.endos, digits):
            if not d & 1:
                fixes.append(neg(endo(pt)))
                d += 1
            bits = format((d + (1 << width) - 1) >> 1, f"0{width}b")
            runs.append([endo(unpack(table[v & half])) if v > half else neg(endo(unpack(table[half - v])))
                         for v in [int(bits[i::spacing], 2) for i in range(spacing)]])
        for j, column in enumerate(zip(*runs)):
            if j:
                acc = dbl(acc)
            for q in column:
                acc = madd(acc, q)
        for q in fixes:
            acc = madd(acc, q)
        return g.to_affine([acc])[0]
    # the odd multiples P, 3P, 5P, 7P of the wNAF digits: 2P is made affine
    # first, then the four share one inversion; endo carries them to the
    # odd multiples of the next base
    two = g.to_affine([dbl(g.lift(pt))])[0]
    jac = [g.lift(pt)]
    for _ in range(3):
        jac.append(madd(jac[-1], two))
    tables, odd = [], g.to_affine(jac)
    for i in range(len(digits)):
        if i:
            odd = [g.endo(q) for q in odd]
        tables.append(dict(zip((1, 3, 5, 7, -1, -3, -5, -7), odd + [neg(q) for q in odd])))
    nafs = [_naf(d, 4) for d in digits]
    for column in reversed(list(zip_longest(*nafs, fillvalue=0))):
        acc = dbl(acc)
        for d, table in zip(column, tables):
            if d:
                acc = madd(acc, table[d])
    return g.to_affine([acc])[0]


_GT = _Cyclotomic()


def fq12_pow_cyclo(f, e):
    """f^e by the shared driver.  An e with |e| <= |z| holds for any
    cyclotomic f; a longer one holds only on GT: pairing outputs, decodes
    checked by gt_is_valid, and their products and powers."""
    return _mul(_GT, f, e)


# ---------------------------------------------------------------------------
# G1: y^2 = x^3 + 4 over Fq.  Affine points are (x, y) or None.  The
# formulas reduce lazily: each output once (the membership test compares
# reduced coordinates, a comb packs each into a 384-bit word), H and r to be
# tested for zero, and a product another product takes; E = 3A, I = 4 HH,
# 2r and C = B^2 stay unreduced.


def g1_neg(pt):
    if pt is None:
        return None
    return (pt[0], -pt[1] % P)


def g1_on_curve(pt):
    if pt is None:
        return True
    x, y = pt
    return (y * y - (x * x * x + B1)) % P == 0


def _g1_dbl_jac(p):
    """dbl-2009-l, with D = 4 X B one product where the EFD squares a sum."""
    X, Y, Z = p
    if not Z or not Y:
        return (0, 1, 0)
    A = X * X % P
    B = Y * Y % P
    C = B * B
    D = 4 * X * B % P
    E = 3 * A
    X3 = (E * E - 2 * D) % P
    Y3 = (E * (D - X3) - 8 * C) % P
    Z3 = 2 * Y * Z % P
    return (X3, Y3, Z3)


def _g1_madd(p, q):
    """p + q for p Jacobian and q affine (None for infinity), madd-2007-bl."""
    if q is None:
        return p
    X1, Y1, Z1 = p
    x2, y2 = q
    if not Z1:
        return (x2, y2, 1)
    Z1Z1 = Z1 * Z1 % P
    H = (x2 * Z1Z1 - X1) % P
    r = (y2 * Z1 * Z1Z1 - Y1) % P
    if H == 0:
        if r == 0:
            return _g1_dbl_jac((x2, y2, 1))
        return (0, 1, 0)
    HH = H * H % P
    I = 4 * HH
    J = H * I % P
    r = 2 * r
    V = X1 * I % P
    X3 = (r * r - J - 2 * V) % P
    Y3 = (r * (V - X3) - 2 * Y1 * J) % P
    Z3 = ((Z1 + H) ** 2 - Z1Z1 - HH) % P
    return (X3, Y3, Z3)


# endo = -phi with phi(x, y) = (BETA x, y), BETA the cube root of unity for
# which phi acts on G1 as [-z^2] (the other one gives [z^2 - 1])
BETA = 0x5F19672FDF76CE51BA69C6076A0F77EADDB3A93BE6F89688DE17D813620A00022E01FFFFFFFEFFFE
_G1 = _Group(G1_GEN, 12, 0, 1, _g1_dbl_jac, _g1_madd, g1_neg,
             lambda a, b: a * b % P, lambda a: pow(a, -1, P),
             [lambda q: (q[0] * BETA % P, -q[1] % P)], BLS_X * BLS_X,
             _pack, lambda v: (v & _WORD, v >> 384))


def g1_add(p, q):
    return _G1.add(p, q)


def g1_mul(pt, k):
    return _mul(_G1, pt, k)


def g1_in_subgroup(pt):
    """Scott's test (ePrint 2021/1130): on the curve and -phi(P) == [z^2]P."""
    return pt is None or (g1_on_curve(pt) and _G1.endo_is_radix(pt))


# ---------------------------------------------------------------------------
# G2: y^2 = x^3 + 4(u+1) over Fq2.  Same formulas over Fq2.

B2 = (4, 4)  # 4 xi


def g2_neg(pt):
    if pt is None:
        return None
    return (pt[0], fq2_neg(pt[1]))


def g2_on_curve(pt):
    if pt is None:
        return True
    x, y = pt
    lhs = fq2_sqr(y)
    rhs = fq2_add(fq2_mul(fq2_sqr(x), x), B2)
    return lhs == rhs


def _g2_dbl_jac(p):
    """dbl-2009-l on unpacked ints: C stays unreduced, D is reduced for its
    product, and each output coefficient is reduced once."""
    (x0, x1), (y0, y1), (z0, z1) = p
    if not (z0 or z1) or not (y0 or y1):
        return (FQ2_ZERO, FQ2_ONE, FQ2_ZERO)
    a0 = (x0 + x1) * (x0 - x1) % P  # A = X^2
    a1 = 2 * x0 * x1 % P
    b0 = (y0 + y1) * (y0 - y1) % P  # B = Y^2
    b1 = 2 * y0 * y1 % P
    c0 = (b0 + b1) * (b0 - b1)  # C = B^2
    c1 = 2 * b0 * b1
    s0, s1 = x0 + b0, x1 + b1
    d0 = 2 * ((s0 + s1) * (s0 - s1) - a0 - c0) % P  # D = 2((X + B)^2 - A - C)
    d1 = 2 * (2 * s0 * s1 - a1 - c1) % P
    e0, e1 = 3 * a0, 3 * a1  # E = 3A
    X3 = ((e0 + e1) * (e0 - e1) - 2 * d0) % P, (2 * e0 * e1 - 2 * d1) % P
    n0, n1 = d0 - X3[0], d1 - X3[1]
    t0 = e0 * n0
    t1 = e1 * n1
    Y3 = (t0 - t1 - 8 * c0) % P, ((e0 + e1) * (n0 + n1) - t0 - t1 - 8 * c1) % P
    t0 = y0 * z0
    t1 = y1 * z1
    return X3, Y3, (2 * (t0 - t1) % P, 2 * ((y0 + y1) * (z0 + z1) - t0 - t1) % P)


def _g2_madd(p, q):
    """madd-2007-bl on unpacked ints, reducing what later products take and
    each output coefficient once."""
    if q is None:
        return p
    (x0, x1), (y0, y1), (z0, z1) = p
    (u0, u1), (v0, v1) = q
    if not (z0 or z1):
        return (*q, FQ2_ONE)
    zz0 = (z0 + z1) * (z0 - z1) % P  # Z1Z1
    zz1 = 2 * z0 * z1 % P
    t0 = u0 * zz0
    t1 = u1 * zz1
    h0 = (t0 - t1 - x0) % P  # H = x2 Z1Z1 - X1
    h1 = ((u0 + u1) * (zz0 + zz1) - t0 - t1 - x1) % P
    t0 = z0 * zz0
    t1 = z1 * zz1
    w0 = (t0 - t1) % P  # Z1^3
    w1 = ((z0 + z1) * (zz0 + zz1) - t0 - t1) % P
    t0 = v0 * w0
    t1 = v1 * w1
    r0 = (t0 - t1 - y0) % P  # y2 Z1^3 - Y1
    r1 = ((v0 + v1) * (w0 + w1) - t0 - t1 - y1) % P
    if not (h0 or h1):
        if not (r0 or r1):
            return _g2_dbl_jac((*q, FQ2_ONE))
        return (FQ2_ZERO, FQ2_ONE, FQ2_ZERO)
    hh0 = (h0 + h1) * (h0 - h1) % P  # HH
    hh1 = 2 * h0 * h1 % P
    i0, i1 = 4 * hh0, 4 * hh1  # I = 4 HH
    t0 = h0 * i0
    t1 = h1 * i1
    j0 = (t0 - t1) % P  # J = H I
    j1 = ((h0 + h1) * (i0 + i1) - t0 - t1) % P
    t0 = x0 * i0
    t1 = x1 * i1
    V0 = (t0 - t1) % P  # V = X1 I
    V1 = ((x0 + x1) * (i0 + i1) - t0 - t1) % P
    r0, r1 = 2 * r0, 2 * r1
    X3 = ((r0 + r1) * (r0 - r1) - j0 - 2 * V0) % P, (2 * r0 * r1 - j1 - 2 * V1) % P
    n0, n1 = V0 - X3[0], V1 - X3[1]
    t0 = r0 * n0
    t1 = r1 * n1
    m0 = y0 * j0
    m1 = y1 * j1
    Y3 = ((t0 - t1 - 2 * (m0 - m1)) % P,
          ((r0 + r1) * (n0 + n1) - t0 - t1 - 2 * ((y0 + y1) * (j0 + j1) - m0 - m1)) % P)
    s0, s1 = z0 + h0, z1 + h1
    return X3, Y3, (((s0 + s1) * (s0 - s1) - zz0 - hh0) % P, (2 * s0 * s1 - zz1 - hh1) % P)


# endo = -psi, with psi (above) acting on G2 as [p] = [z].  PSI_X = c u, so
# conj(x) PSI_X = (c x1, c x0).  psi^2 (x, y) = (N(PSI_X) x, N(PSI_Y) y), N
# the norm to Fq, with N(PSI_Y) = -1 and N(PSI_X) c = -1, so endo^2 = psi^2
# is (c^2 x, -y) and endo^3 = -psi^3 is (-(x1, x0), conj(y) PSI_Y).
_PSI_C = PSI_X[1]
_PSI_Y0, _PSI_Y1 = PSI_Y
_PSI_YS = _PSI_Y0 + _PSI_Y1
_PSI_C2 = _PSI_C * _PSI_C % P
assert fq2_mul(fq2_conj(PSI_Y), PSI_Y) == (P - 1, 0) and _PSI_C2 * _PSI_C % P == P - 1


def _g2_endo(q):
    (x0, x1), (y0, y1) = q
    t0 = y0 * _PSI_Y0
    t1 = y1 * _PSI_Y1
    return (x1 * _PSI_C % P, x0 * _PSI_C % P), (-(t0 + t1) % P, (t0 - t1 - (y0 - y1) * _PSI_YS) % P)


def _g2_endo2(q):
    (x0, x1), (y0, y1) = q
    return (x0 * _PSI_C2 % P, x1 * _PSI_C2 % P), (-y0 % P, -y1 % P)


def _g2_endo3(q):
    (x0, x1), (y0, y1) = q
    t0 = y0 * _PSI_Y0
    t1 = y1 * _PSI_Y1
    return (-x1 % P, -x0 % P), ((t0 + t1) % P, ((y0 - y1) * _PSI_YS - t0 + t1) % P)


_G2 = _Group(G2_GEN, 11, FQ2_ZERO, FQ2_ONE, _g2_dbl_jac, _g2_madd, g2_neg, fq2_mul, fq2_inv,
             [_g2_endo, _g2_endo2, _g2_endo3], BLS_X, lambda q: _pack((*q[0], *q[1])),
             lambda v: ((v & _WORD, v >> 384 & _WORD), (v >> 768 & _WORD, v >> 1152)))


def g2_add(p, q):
    return _G2.add(p, q)


def g2_mul(pt, k):
    return _mul(_G2, pt, k)


def g2_in_subgroup(pt):
    """Scott's test (ePrint 2021/1130): on the curve and -psi(Q) == [|z|]Q."""
    return pt is None or (g2_on_curve(pt) and _G2.endo_is_radix(pt))


# ---------------------------------------------------------------------------
# Ate pairing.
#
# T = [k]Q stays on the twist in homogeneous projective coordinates
# (X : Y : Z), x = X/Z, y = Y/Z, so no step inverts anything.  Under the
# untwisting (x, y) -> (x/w^2, y/w^3) every line through T, scaled by w^3
# and by an Fq2 denominator, has the M-type shape
#     c0 + (c1 xP) v + (c4 yP) v w,
# nonzero only in the w^0, w^2 and w^3 slots.  The dropped factors are
# Fq2 constants and powers of w^3; the final exponentiation sends all of
# them to one, so pairing outputs are those of the affine textbook loop.
# Doubling and mixed addition follow Costello-Lange-Naehrig (PKC 2010) and
# Aranha et al. (Eurocrypt 2011); the doubling step, which runs at every
# bit, is written on ints with lazy reduction.
#
# P enters a line only through the factors xP and yP of that shape, so a
# Q's lines are prepared once, free of P: _g2_lines walks T over the loop
# and keeps each line as the flat (c0, c1, -c4), that is 3 X^2 and h for a
# doubling, theta and lambda for an addition.  miller_loop makes or fetches
# Q's lines and yields each one times xP and -yP, four Fq products a line.
# Most G2 arguments of a decryption are long-lived key elements, so lines
# are kept by use in a _kept LRU dict keyed by Q: from Q's second use, each
# line packed into one int, so a one-shot Q never pushes out a reused one.
# Nothing cached here is ever serialized.
#
# pairing_product steps the line generators of all its pairs together
# (Granger-Smart, "On computing products of pairings", 2006): the product
# of the per-pair Miller functions is the same field element, since
# squaring and multiplication commute, but f is squared once per bit for all
# pairs instead of once per bit and pair.

_LOOP_BITS = bin(BLS_X)[3:]
_LINE_QS = 64  # Qs whose lines are kept, 23 KiB each: 1.5 MiB; 24 kept too few reused Qs to pay
_LINES = {}  # Q -> its uses, or its packed P-free lines


def _dbl_line(t):
    """2T and the P-free tangent line at T, (e - yy, 3 X^2, h) flat.  On
    unpacked ints, reducing what later products take and each output once."""
    (x0, x1), (y0, y1), (z0, z1) = t
    yy0 = (y0 + y1) * (y0 - y1) % P
    yy1 = 2 * y0 * y1 % P
    zz0 = (z0 + z1) * (z0 - z1)
    zz1 = 2 * z0 * z1
    e0 = 12 * (zz0 - zz1) % P  # e = 3 b' Z^2, b' = 4 xi
    e1 = 12 * (zz0 + zz1) % P
    s0, s1 = y0 + z0, y1 + z1
    h0 = ((s0 + s1) * (s0 - s1) - yy0 - zz0) % P  # h = 2 Y Z
    h1 = (2 * s0 * s1 - yy1 - zz1) % P
    t0 = x0 * y0
    t1 = x1 * y1
    m0 = (t0 - t1) % P  # X Y
    m1 = ((x0 + x1) * (y0 + y1) - t0 - t1) % P
    # the CLN formulas scaled by 4 so that no halving is needed:
    # 2 X Y (yy - 3e), (yy + 3e)^2 - 12 e^2, 4 yy h
    n0, n1 = yy0 - 3 * e0, yy1 - 3 * e1
    t0 = m0 * n0
    t1 = m1 * n1
    X3 = (2 * (t0 - t1) % P, 2 * ((m0 + m1) * (n0 + n1) - t0 - t1) % P)
    n0, n1 = yy0 + 3 * e0, yy1 + 3 * e1
    Y3 = (((n0 + n1) * (n0 - n1) - 12 * (e0 + e1) * (e0 - e1)) % P,
          (2 * n0 * n1 - 24 * e0 * e1) % P)
    t0 = yy0 * h0
    t1 = yy1 * h1
    Z3 = (4 * (t0 - t1) % P, 4 * ((yy0 + yy1) * (h0 + h1) - t0 - t1) % P)
    # the line e - yy + (3 X^2 xP) v + (h (-yP)) v w
    return (X3, Y3, Z3), ((e0 - yy0) % P, (e1 - yy1) % P,
                          3 * (x0 + x1) * (x0 - x1) % P, 6 * x0 * x1 % P, h0, h1)


def _add_line(t, q):
    """T + Q (Q affine, T != +-Q) and the P-free line through them,
    (lambda y2 - theta x2, theta, lambda) flat."""
    X, Y, Z = t
    x2, y2 = q
    theta = fq2_sub(Y, fq2_mul(y2, Z))
    lam = fq2_sub(X, fq2_mul(x2, Z))
    d = fq2_sqr(lam)
    e = fq2_mul(lam, d)
    g = fq2_mul(X, d)
    h = fq2_sub(fq2_add(e, fq2_mul(Z, fq2_sqr(theta))), fq2_add(g, g))
    t3 = (
        fq2_mul(lam, h),
        fq2_sub(fq2_mul(theta, fq2_sub(g, h)), fq2_mul(Y, e)),
        fq2_mul(Z, e),
    )
    return t3, (*fq2_sub(fq2_mul(lam, y2), fq2_mul(theta, x2)), *theta, *lam)


def _g2_lines(q):
    """Q's P-free lines in loop order: per bit of |z| below the top one the
    tangent line at T, and after a set bit the line through T and Q."""
    t = (*q, FQ2_ONE)
    lines = []
    for bit in _LOOP_BITS:
        t, line = _dbl_line(t)
        lines.append(line)
        if bit == "1":
            t, line = _add_line(t, q)
            lines.append(line)
    return lines


def _unpack_line(v):
    return v & _WORD, v >> 384 & _WORD, v >> 768 & _WORD, v >> 1152 & _WORD, v >> 1536 & _WORD, v >> 1920


def miller_loop(p, q):
    """The lines of the Miller function f_{|z|,Q}(P), in loop order, each
    as (c0, c1, c4) for fq12_mul_014.  Q's lines are made, or fetched, in
    this call; the generator it returns scales them by P."""
    packed = _kept(_LINES, q, lambda q: [_pack(line) for line in _g2_lines(q)], 2, _LINE_QS)
    lines = _g2_lines(q) if packed is None else map(_unpack_line, packed)
    xp, yp = p
    nyp = -yp % P
    return (((a0, a1), (b0 * xp % P, b1 * xp % P), (c0 * nyp % P, c1 * nyp % P))
            for a0, a1, b0, b1, c0, c1 in lines)


# per line of a Miller loop, whether the accumulator is squared before it
_LOOP_SQUARES = [sq for bit in _LOOP_BITS for sq in ((True, False) if bit == "1" else (True,))]


def pairing_product(pairs):
    """prod e(P_i, Q_i), P_i in G1, Q_i in G2; one if every pair has an
    infinity.  One Miller loop for all pairs without infinity (Granger-
    Smart, 2006): f is squared once per bit and takes each pair's line of
    that step, then conjugated, because the curve parameter is negative,
    and raised by one final exponentiation."""
    loops = [miller_loop(p, q) for p, q in pairs if p is not None and q is not None]
    if not loops:
        return FQ12_ONE
    f = FQ12_ONE
    for square, lines in zip(_LOOP_SQUARES, zip(*loops)):
        if square and f is not FQ12_ONE:
            f = fq12_sqr(f)
        for line in lines:
            f = fq12_mul_014(f, *line)
    return final_exponentiation(fq12_conj(f))


# ---------------------------------------------------------------------------
# Canonical encodings: standard 96/192-byte uncompressed points, 576-byte
# Fq12.  A point is its coordinates as 48-byte big-endian words, x before y
# and c1 before c0 in Fq2, so G1 is x || y and G2 is x1 || x0 || y1 || y0.
# The top three bits of the first byte are the standard flags: compressed
# (0x80) and the sign of y (0x20) are always clear, and infinity (0x40) has
# one encoding, 0x40 followed by zero bytes.  Storing y costs twice the
# bytes and saves decoding a square root.


def _word_bytes(words):
    return b"".join(w.to_bytes(48, "big") for w in words)


def _words(data, what):
    """data as 48-byte big-endian words, each below P."""
    words = [int.from_bytes(data[i : i + 48], "big") for i in range(0, len(data), 48)]
    if any(w >= P for w in words):
        raise ValueError(f"{what} out of range")
    return words


def _point_bytes(words, size):
    """The uncompressed encoding of a point's coordinate words; None is infinity."""
    if words is None:
        return bytes([0x40]) + bytes(size - 1)
    return _word_bytes(words)


def _point_words(data, size, group):
    """The coordinate words, each below P, of an uncompressed point, or None for infinity."""
    if len(data) != size:
        raise ValueError(f"{group} encoding must be {size} bytes")
    flags = data[0]
    if flags & 0x80:
        raise ValueError(f"compressed {group} encoding not supported")
    if flags & 0x20:
        raise ValueError(f"{group} encoding has the sign bit set")
    if flags & 0x40:
        if flags != 0x40 or any(data[1:]):
            raise ValueError(f"malformed {group} infinity encoding")
        return None
    return _words(data, f"{group} coordinate")


def g1_to_bytes(pt):
    return _point_bytes(pt, 96)


def g1_from_bytes(data):
    words = _point_words(data, 96, "G1")
    if words is None:
        return None
    pt = tuple(words)
    if not g1_in_subgroup(pt):
        raise ValueError("G1 point not on the curve or not in the prime-order subgroup")
    return pt


def g2_to_bytes(pt):
    if pt is None:
        return _point_bytes(None, 192)
    (x0, x1), (y0, y1) = pt
    return _point_bytes((x1, x0, y1, y0), 192)


def g2_from_bytes(data):
    words = _point_words(data, 192, "G2")
    if words is None:
        return None
    x1, x0, y1, y0 = words
    pt = ((x0, x1), (y0, y1))
    if not g2_in_subgroup(pt):
        raise ValueError("G2 point not on the curve or not in the prime-order subgroup")
    return pt


def fq12_to_bytes(f):
    return _word_bytes(_fq12_coeffs(f))


def fq12_from_bytes(data):
    if len(data) != 576:
        raise ValueError("Fq12 encoding must be 576 bytes")
    return _fq12_of(_words(data, "Fq12 coefficient"))


def gt_is_valid(f):
    """Membership test for pairing outputs: not zero, the one element with
    no inverse, then cyclotomic (hence unitary), then f^p == f^z, which
    leaves order gcd(p - z, p^4 - p^2 + 1) = r."""
    if f == FQ12_ZERO:
        return False
    if fq12_mul(fq12_frob2(fq12_frob2(f)), f) != fq12_frob2(f):  # f^(p^4 - p^2 + 1) == 1
        return False
    return fq12_frob1(f) == _exp_neg_z(f)
