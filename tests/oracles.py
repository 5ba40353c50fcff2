"""Reference implementations the tests compare the library against.

None of them is on the path of the command line: an exhaustive semigroup
membership search and the Apery set and numerator it gives, the curve
ideal as the kernel of the parametrization, a Hilbert function counted
monomial by monomial, the grid of valid parameter triples, and the
readers of the JSON output format.  They share no code with the library's division,
closure or Hilbert numerator.  buchberger, the reduced Groebner basis, is
the one exception: it interreduces the library's untruncated Closure, and
is the reference for the lead ideal the library reads off that closure.
More keep the library's earlier, slower forms as references for the
faster ones: numerator_all_pairs, Bigatti's recursion minimizing every
ideal it meets; module_identity_by_symbol and module_sum_by_symbol, one
K per module symbol; first_dividing_pair_all_pairs, every ordered pair
of leads; minimal_all_pairs, each monomial tested against every lower one;
s_polynomial, the S-element of two elements from leads recomputed by
the order, for Reducer.s_pair, which reads the leads it holds;
standard_monomials_full_test, each monomial tested against every lead;
syzygy_A_chained and syzygy_L_chained, the A and L relations built
one term at a time by module arithmetic; phi_by_subtraction and
psi_by_subtraction, each binomial a difference of two Polys of fresh
variable_monomial products; syzygy_B_lifted, B from those binomials
lifted onto a symbol (lift); patil_by_terms, the classical set built
term by term; order_projection_by_images, the sampled projection check
through one module element and image polynomial per sampled term;
order_projection_exact, the same check decided once per symbol, drawing
only to name a witness; relation_image_by_tuples, an element's image with
one exponent tuple per product; excluded_boxes, the excluded families'
boxes, and excluded_form_every_box, the excluded-form witness with every
box tested against every lead on its symbol;
leading_term_shape_three_tests, the lead shape decided by a set
equality, a distinct count and a per-label comparison;
and
phi_symbol and psi_symbol, the symbol conventions, and tau, the cap of
an L correction.  poly_term and
module_term build one-term elements, which the library never does,
planted_syzygies a syzygy set of planted members, and syzygy_members the
members of a syzygy set in label order.
betti_1_by_search counts minimal generators per weight from the
membership search alone, and betti_2_by_homology the minimal syzygies
per weight from the homology of the same complexes.
The library never imports this module.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import inf

from monocurve.generators import PatilSet, epsilon
from monocurve.polyring import (Closure, Poly, Reducer, WeightOrder, _exact, mono_div,
                                mono_divides, mono_lcm, mono_mul, mono_one, normal_form,
                                variable_monomial)
from monocurve.semigroup import (CurveParams, ParameterError, _add_shifted, _times_one_minus,
                                 apery_numerator, make_params)
from monocurve.report import VerificationReport
from monocurve.syzygy import (ModElement, Phi, Psi, SyzygySet, _expected_leads, relation_image,
                              term_to_json)


def tau(i: int, j: int, p: int) -> int:
    """The paper's cap of an L correction: 0 when i + j < p, else p.  The
    library's L family spells its two cases inline."""
    return 0 if i + j < p else p


def _reach(x: int, values: tuple[int, ...]) -> tuple[list, list]:
    """(reachable, used) over [0, x]: whether v is a non-negative
    combination of values, and the index of the first value whose removal
    leaves a reachable rest, by dynamic programming."""
    used = [None] * (x + 1)
    reachable = [False] * (x + 1)
    reachable[0] = True
    for v in range(1, x + 1):
        for k, val in enumerate(values):
            if val <= v and reachable[v - val]:
                reachable[v] = True
                used[v] = k
                break
    return reachable, used


def _representation(x: int, values: tuple[int, ...]) -> tuple[int, ...] | None:
    """Multiplicities writing x as a non-negative combination of values, or None.

    Dynamic programming over [0, x] with back-pointers; the witness is
    reconstructed by walking back, so it is exact but not unique.
    """
    if x == 0:
        return (0,) * len(values)
    reachable, used = _reach(x, values)
    if not reachable[x]:
        return None
    counts = [0] * len(values)
    v = x
    while v:
        k = used[v]
        counts[k] += 1
        v -= values[k]
    return tuple(counts)


def semigroup_membership(params: CurveParams, x: int) -> tuple[int, ...] | None:
    """A witness (c_0, ..., c_p) with x = sum c_i * m_i, or None."""
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    return _representation(x, params.generators)


def semigroup_elements(params: CurveParams, top: int) -> set[int]:
    """The members of the semigroup up to top, from the dynamic programming
    of semigroup_membership run once."""
    return {v for v, r in enumerate(_reach(top, params.generators)[0]) if r}


def betti_1_by_search(params: CurveParams, weights) -> dict:
    """beta_1(w) for each w in weights, the number of minimal generators of
    weight w of the curve ideal: the connected components, less one, of
    the 1-skeleton of the squarefree divisor complex D_w = {F : w - sum_F
    m_i in S} (Miller, Sturmfels, Thm 9.2), with membership from
    semigroup_elements and components by merging labels.  The reference
    for semigroup._betti_1."""
    weights = list(weights)
    members, gens = semigroup_elements(params, max(weights, default=0)), params.generators
    out = {}
    for w in weights:
        label = {i: i for i, m in enumerate(gens) if w - m in members}
        for i, j in combinations(sorted(label), 2):
            if w - gens[i] - gens[j] in members and label[i] != label[j]:
                old = label[j]
                label = {k: label[i] if v == old else v for k, v in label.items()}
        out[w] = max(len(set(label.values())) - 1, 0)
    return out


def apery_set_by_search(params: CurveParams) -> list[int]:
    """The Apery set Ap(S, m0), ascending: the least member of the semigroup
    in each residue class mod m0, found by semigroup_membership."""
    m0, least, s = params.m0, {}, 0
    while len(least) < m0:
        if s % m0 not in least and semigroup_membership(params, s) is not None:
            least[s % m0] = s
        s += 1
    return sorted(least.values())


def apery_numerator_by_search(params: CurveParams) -> dict:
    """A(t) * prod_{i=1..p} (1 - t^{m_i}) as {exponent: non-zero coefficient},
    where A(t) sums t^s over the Apery set (apery_set_by_search)."""
    least = apery_set_by_search(params)
    coeffs = [0] * (least[-1] + sum(params.generators[1:]) + 1)
    for s in least:
        coeffs[s] += 1
    for m in params.generators[1:]:
        for e in range(len(coeffs) - 1, m - 1, -1):
            coeffs[e] -= coeffs[e - m]
    return {e: c for e, c in enumerate(coeffs) if c}


def hilbert_function(weights, monos, top: int) -> list[int]:
    """h[w] for w <= top: the number of monomials of weight w outside the
    ideal that the exponent tuples monos generate, counted one by one."""
    counts = [0] * (top + 1)

    def walk(v, expo, w):
        if v == len(weights):
            if not any(all(a <= b for a, b in zip(m, expo)) for m in monos):
                counts[w] += 1
            return
        e = 0
        while w + e * weights[v] <= top:
            walk(v + 1, expo + (e,), w + e * weights[v])
            e += 1

    walk(0, (), 0)
    return counts


def series_coefficients(numerator: dict, weights, top: int) -> list[int]:
    """The coefficients of t^0..t^top in numerator / prod(1 - t^w)."""
    coeffs = [0] * (top + 1)
    for e, c in numerator.items():
        if e <= top:
            coeffs[e] += c
    for w in weights:
        for e in range(w, top + 1):
            coeffs[e] += coeffs[e - w]
    return coeffs


def numerator_all_pairs(weights, monos, memo=None) -> dict:
    """K(J) for the ideal J of the exponent tuples monos, by Bigatti's
    recursion (JPAA 1997) with every ideal it meets minimized by testing
    all pairs: K(J) = K(J + (x)) + t^{w(x)} K(J : x), for the variable x in
    most generators with two or more variables, and prod (1 - t^{w(g)})
    for pairwise coprime generators.  The reference for
    polyring.hilbert_numerator, which minimizes once, at entry."""
    memo = {} if memo is None else memo
    kept = []
    for m in sorted(set(monos), key=sum):
        if not any(mono_divides(k, m) for k in kept):
            kept.append(m)
    gens = tuple(sorted(kept))
    if gens in memo:
        return memo[gens]
    users, mixed = [0] * len(weights), [0] * len(weights)
    for g in gens:
        support = [v for v, e in enumerate(g) if e]
        for v in support:
            users[v] += 1
            mixed[v] += len(support) > 1
    if max(users) <= 1:
        out = _times_one_minus({0: 1}, [sum(e * w for e, w in zip(g, weights)) for g in gens])
    else:
        x = mixed.index(max(mixed))
        unit = tuple(int(v == x) for v in range(len(weights)))
        added = [g for g in gens if not g[x]] + [unit]
        quotient = [g[:x] + (max(g[x] - 1, 0),) + g[x + 1:] for g in gens]
        out = _add_shifted(dict(numerator_all_pairs(weights, added, memo)),
                           numerator_all_pairs(weights, quotient, memo), weights[x])
    memo[gens] = out
    return out


def module_sum_by_symbol(curve, leads_of) -> dict:
    """sum_sym t^{w(image(sym))} K(M_sym) over the curve's symbols, for the
    lead monomials M_sym = leads_of(sym), with one numerator_all_pairs per
    symbol."""
    params, series = curve.params, {}
    for sym, image in curve.images.items():
        shift = params.weight(next(iter(image.terms)))
        _add_shifted(series, numerator_all_pairs(params.exponent_weights, leads_of(sym)), shift)
    return series


def module_identity_by_symbol(curve) -> bool:
    """sum_sym t^{w(image(sym))} K(M_sym) = 1 - N, for the leads M_sym of
    the curve's syzygy basis on each symbol (module_sum_by_symbol): the
    reference for syzygy._module_identity, which computes one K per
    distinct lead set, or the sum in closed form."""
    series = module_sum_by_symbol(curve, curve.module_reducer.lead_monomials)
    return series == _add_shifted({0: 1}, apery_numerator(curve.params), sign=-1)


def curve_image(params: CurveParams, f: Poly) -> dict:
    """Substitute X_i -> T**m_i; result maps T-exponent to coefficient.

    The result is empty exactly when f lies in the curve ideal.
    """
    out = {}
    for mono, c in f.terms.items():
        t = params.weight(mono)
        v = out.get(t, 0) + c
        if v:
            out[t] = v
        elif t in out:
            del out[t]
    return out


def parameter_sweep(p_values, a_values, d_values, b_values=None):
    """Yield every valid CurveParams with m0 = a*p + b over the given ranges.

    Combinations failing the gcd or range hypotheses are skipped.
    When b_values is None, b runs over the full range [1, p].
    """
    for p in p_values:
        for a in a_values:
            for b in b_values if b_values is not None else range(1, p + 1):
                if not 1 <= b <= p:
                    continue
                for d in d_values:
                    try:
                        yield make_params(a * p + b, d, p)
                    except ParameterError:
                        continue


def poly_from_json(nvars: int, items) -> Poly:
    """Read back polyring.poly_to_json."""
    return Poly(nvars, {tuple(t["expo"]): _exact(t["coeff"]) for t in items})


def _symbol_from_json(data) -> Psi | Phi:
    if data["kind"] == "Psi":
        return Psi(data["j"])
    if data["kind"] == "Phi":
        return Phi(data["i"], data["j"])
    raise ValueError(f"unknown basis symbol kind {data['kind']!r}")


def mod_elem_from_json(nvars: int, items) -> ModElement:
    """Read back syzygy.mod_elem_to_json."""
    return ModElement(nvars, {(tuple(t["expo"]), _symbol_from_json(t["basis"])): _exact(t["coeff"])
                              for t in items})


def buchberger(order: WeightOrder, gens) -> list[Poly]:
    """Reduced Groebner basis of the ideal generated by gens: monic and
    sorted by descending leading monomial, hence canonical for a given
    ideal (Cox, Little, O'Shea, section 2.7).

    The untruncated closure of gens is monic and holds no zero (see
    Closure.append).  Its elements, by ascending lead, grow one Reducer of
    those whose lead no earlier kept lead divides, and that Reducer
    reduces the tail of each kept element.  A lead monomial divides no
    smaller monomial, so an element never reduces its own tail, and the
    result is that of dividing each element by all the others.
    """
    def lead_key(g):
        return order.key(order.leading_monomial(g))

    kept = Reducer(order)
    for g in sorted(Closure(order, gens).close().basis, key=lead_key):
        lm = order.leading_monomial(g)
        if not any(mono_divides(m, lm) for m in kept.lead_monomials()):
            kept.append(g)
    out = []
    for g in kept.basis:
        lead = poly_term(g.nvars, *order.leading_term(g))
        out.append(lead + normal_form(g - lead, kept)[0])
    out.sort(key=lead_key, reverse=True)
    return out


def s_polynomial(order, f, g):
    """Cancel the leading terms of f and g, each found by the order, against
    their lcm: the reference for polyring.Reducer.s_pair.

    f and g are both Polys, or both module elements whose leading terms
    carry one symbol; there is no S-pair across two symbols.
    """
    (tf, cf), (tg, cg) = order.leading_term(f), order.leading_term(g)
    (mf, sf), (mg, sg) = ((tf, None), (tg, None)) if isinstance(order, WeightOrder) else (tf, tg)
    if sf != sg:
        raise ValueError(f"the leading terms carry different symbols, {sf} and {sg}")
    lcm = mono_lcm(mf, mg)
    return f.times_term(Fraction(1) / cf, mono_div(lcm, mf)) - g.times_term(
        Fraction(1) / cg, mono_div(lcm, mg))


def first_dividing_pair_all_pairs(table: Reducer) -> tuple[int, int] | None:
    """The first (x, y) in index order, x != y, whose lead monomial x
    divides lead monomial y on one symbol of the Reducer table, or None,
    from every ordered pair of its leads: the reference for
    polyring._first_dividing_pair, which tests only lower degrees."""
    terms = [(t, None) if table.ring else t for t, _ in table.leads]
    return min(((x, y) for x, (mx, sx) in enumerate(terms) for y, (my, sy) in enumerate(terms)
                if x != y and sx == sy and mono_divides(mx, my)), default=None)


def minimal_all_pairs(monos) -> list:
    """The minimal generators of the monomial ideal of monos: each distinct
    monomial, by ascending degree, that no monomial kept before it
    divides, every one of them tested.  The reference for
    polyring._minimal, which tests only those whose support lies in the
    monomial's own."""
    kept = []
    for mono in sorted(set(monos), key=sum):
        if not any(mono_divides(k, mono) for k in kept if sum(k) < sum(mono)):
            kept.append(mono)
    return kept


def standard_monomials_full_test(lms, nvars: int, bound: int) -> list:
    """The monomials with exponents <= bound that no monomial of lms
    divides, ascending: the order ideal reached from 1 by raising one
    exponent at a time, each monomial reached tested against every one
    of lms.  The reference for generators.standard_monomials, which tests
    only the leads that can divide."""
    one = mono_one(nvars)
    seen, stack, out = {one}, [one], []
    while stack:
        mono = stack.pop()
        if any(mono_divides(lm, mono) for lm in lms):
            continue
        out.append(mono)
        for pos, e in enumerate(mono):
            up = mono[:pos] + (e + 1,) + mono[pos + 1:]
            if e < bound and up not in seen:
                seen.add(up)
                stack.append(up)
    return sorted(out)


def poly_term(nvars: int, mono, coeff=1) -> Poly:
    """The one-term polynomial coeff * mono, zero when coeff is, through
    Poly's validating constructor."""
    return Poly(nvars, {tuple(mono): coeff})


def module_term(nvars: int, mono, sym, coeff=1) -> ModElement:
    """The one-term module element coeff * mono * sym, zero when coeff is,
    through ModElement's validating constructor."""
    return ModElement(nvars, {(tuple(mono), sym): coeff})


def relation_image_by_tuples(curve, elem: ModElement) -> Poly:
    """The image of a module element with one exponent tuple per product:
    the sum of c * mono * image(sym) over its terms, by Poly arithmetic.
    The reference for syzygy.relation_image, which adds packed ints."""
    out = Poly.zero(elem.nvars)
    for (mono, sym), c in elem.terms.items():
        out = out + curve.images[sym].times_term(c, mono)
    return out


def syzygy_members(sset: SyzygySet) -> list:
    """The members of a syzygy set in label order, as SyzygySet.keyed()
    lists them."""
    return [g for _, g in sset.keyed()]


def planted_syzygies(params: CurveParams, keyed: list) -> SyzygySet:
    """A syzygy set whose members are keyed, (key, element) pairs in list
    order, as SyzygySet.keyed() lists them; a key that is a string, for a
    planted member, is its own label.  counts() counts its keys by family,
    and no planted member."""

    class Planted(SyzygySet):
        def keyed(self):
            return iter(keyed)

        def label(self, key):
            return key if isinstance(key, str) else super().label(key)

    return Planted(params)


def excluded_boxes(params: CurveParams) -> list:
    """(family, symbol, low, cap) of every excluded box, in box order: the
    families of syzygy.verify_excluded_leading_forms, each a box of
    exponents under one symbol from low up to a cap infinite on its free
    variables."""
    p, b = params.p, params.b
    one = mono_one(params.nvars)
    x0, xp, top = variable_monomial(p, 0, inf), variable_monomial(p, p, inf), Psi(p - b)
    boxes = [("pure-X0", Psi(j), one, x0) for j in range(0, p - b + 1)]
    for i in range(1, p + 1):
        xi = variable_monomial(p, i)
        boxes.append(("X0-power-times-variable", top, xi, mono_mul(xi, x0)))
        boxes.append(("Xp-power-times-variable", top, xi, mono_mul(xi, xp)))
    for i in range(1, p):
        for j in range(i, p):
            boxes.append(("low-index-free-Phi", Phi(i, j), one,
                          (0,) * (j - 1) + (inf,) * (p - j + 2)))
    return boxes


def excluded_form_every_box(curve) -> dict | None:
    """The witness of excluded-forms-stay-excluded, or None, with every box
    (excluded_boxes) tested against every lead on its symbol in box order:
    each of the 2p variable-times-power boxes on Psi(p-b) against all
    p(p-1)/2 of its predicted leads.  The reference for
    syzygy.verify_excluded_leading_forms, which tests those boxes only
    against the leads that can divide a cap, and no box when every lead is
    the predicted one."""
    leads = curve.module_reducer.lead_monomials
    for family, sym, low, high in excluded_boxes(curve.params):
        lead = next((m for m in leads(sym) if mono_divides(m, high)), None)
        if lead is not None:
            return {"family": family, "term": term_to_json((mono_lcm(lead, low), sym))}
    return None


def order_projection_by_images(curve, samples: int = 1000, seed: int = 0) -> VerificationReport:
    """The sampled projection check term by term: each sampled term made a
    module element, evaluated by relation_image, its image's lead found by
    the ring order's leading_monomial and keyed by key().  The reference
    for syzygy.verify_order_projection, which keys each image monomial and
    each symbol's projection once, shifts those keys by the ring key of
    each drawn monomial, builds no product for a passing term and keys
    nothing through a cache; the draws are the same."""
    rng = random.Random(seed)
    params = curve.params
    symbols = sorted(curve.images, key=str)
    bad = None
    for _ in range(samples):
        mono = tuple(rng.randrange(0, 5) for _ in range(params.nvars))
        sym = symbols[rng.randrange(len(symbols))]
        image = relation_image(curve, module_term(params.nvars, mono, sym))
        lm = curve.order.leading_monomial(image)
        if curve.order.key(lm) != curve.morder.key((mono, sym))[0]:
            bad = {"term": term_to_json((mono, sym)), "image-lead": list(lm)}
            break
    report = VerificationReport(params)
    report.add("projection-matches-image-lead", bad is None,
               detail=f"{samples} sampled terms, seed {seed}", witness=bad)
    return report


def order_projection_exact(curve, samples: int = 1000, seed: int = 0) -> VerificationReport:
    """The sampled projection check decided once per symbol.  The ring and
    module keys both shift by the ring key of m under multiplication by m,
    so a sampled term (m, sym) fails exactly when the largest ring key of
    sym's image monomials differs from the module key of (1, sym).  When
    every symbol agrees the record passes with no draw; otherwise the
    seeded draws of syzygy.verify_order_projection are replayed up to the
    first sample on a disagreeing symbol, which is the witness."""
    params = curve.params
    one = mono_one(params.nvars)
    ring_key, module_key = curve.order.key, curve.morder.key
    symbols = sorted(curve.images, key=str)
    wrong = {sym for sym in symbols
             if max(map(ring_key, curve.images[sym].terms)) != module_key((one, sym))[0]}
    bad = None
    if wrong:
        rng = random.Random(seed)
        for _ in range(samples):
            mono = tuple(rng.randrange(0, 5) for _ in range(params.nvars))
            sym = symbols[rng.randrange(len(symbols))]
            if sym in wrong:
                lm = max((mono_mul(mono, m) for m in curve.images[sym].terms), key=ring_key)
                bad = {"term": term_to_json((mono, sym)), "image-lead": list(lm)}
                break
    report = VerificationReport(params)
    report.add("projection-matches-image-lead", bad is None,
               detail=f"{samples} sampled terms, seed {seed}", witness=bad)
    return report


def leading_term_shape_three_tests(curve) -> VerificationReport:
    """The leading-term-shape check as three tests: the computed leads, as
    a set, equal the predicted ones; they are as many as the members; and
    no label's lead differs from its prediction.  The witness lists the
    first three mismatching labels, with "expected" null for a label that
    has no prediction."""
    labeled, sset = curve.sset.labeled(), curve.sset
    predicted = {sset.label(key): term for key, term in _expected_leads(curve.params)}
    actual = {lab: term for (lab, _), (term, _) in zip(labeled, curve.module_reducer.leads)}
    shape_ok = (set(actual.values()) == set(predicted.values())
                and len(set(actual.values())) == len(labeled))
    mismatch = []
    for lab, term in actual.items():
        want = predicted.get(lab)
        if term != want:
            mismatch.append({"element": lab, "computed": term_to_json(term),
                             "expected": None if want is None else term_to_json(want)})
    passed = shape_ok and not mismatch
    report = VerificationReport(curve.params)
    report.add("leading-term-shape", passed, detail=f"{len(labeled)} leading terms",
               witness=None if passed else {"mismatches": mismatch[:3]})
    return report


def psi_symbol(params: CurveParams, j: int) -> Psi:
    """Psi(j), for j in [0, p-b]."""
    if not 0 <= j <= params.p - params.b:
        raise IndexError(f"Psi index {j} outside [0, {params.p - params.b}]")
    return Psi(j)


def phi_symbol(params: CurveParams, i: int, j: int) -> Phi | None:
    """The canonical Phi symbol of the unordered pair, or None when either
    index leaves [1, p-1] and the symbol is zero: the reference for the
    symbols of syzygy._table."""
    if i > j:
        i, j = j, i
    if i < 1 or j > params.p - 1:
        return None
    return Phi(i, j)


def syzygy_A_chained(params: CurveParams, i: int, j: int) -> ModElement:
    """A(i; b, j), one ModElement.term added or subtracted per term, each
    Phi term guarded by the zero convention: the reference for the A
    family of syzygy.syzygy_basis, which sums one term list per member."""
    p, a, b, d = params.p, params.a, params.b, params.d
    nv = params.nvars
    e = epsilon(i, b + j, p)
    elem = module_term(nv, variable_monomial(p, i), psi_symbol(params, j))
    elem -= module_term(nv, variable_monomial(p, b + i + j - e), psi_symbol(params, e - b))
    sym = phi_symbol(params, i, b + j)
    if sym is not None:
        elem -= module_term(nv, variable_monomial(p, p, a), sym)
    sym = phi_symbol(params, i, j)
    if sym is not None:
        elem += module_term(nv, variable_monomial(p, 0, a + d), sym)
    sym = phi_symbol(params, b + i + j - p, p - b)
    if sym is not None:
        elem -= module_term(nv, variable_monomial(p, 0, a + d), sym)
    return elem


def syzygy_L_chained(params: CurveParams, l: int, i: int, j: int) -> ModElement:
    """L(l; i, j), built as syzygy_A_chained builds A: the reference for
    the L family of syzygy.syzygy_basis."""
    p, nv = params.p, params.nvars
    elem = module_term(nv, variable_monomial(p, l), phi_symbol(params, i, j))
    elem -= module_term(nv, variable_monomial(p, j), phi_symbol(params, i, l))
    t = tau(i, j, p)
    sym = phi_symbol(params, i + j - t, l)
    if sym is not None:
        elem += module_term(nv, variable_monomial(p, t), sym)
    t = tau(i, l, p)
    sym = phi_symbol(params, i + l - t, j)
    if sym is not None:
        elem -= module_term(nv, variable_monomial(p, t), sym)
    return elem


def phi_by_subtraction(params: CurveParams, i: int, j: int) -> Poly:
    """phi(i, j) as the difference of two one-term Polys: the reference for
    the phis of generators.groebner_generators."""
    p = params.p
    e = epsilon(i, j, p)
    lead = mono_mul(variable_monomial(p, i), variable_monomial(p, j))
    tail = mono_mul(variable_monomial(p, e), variable_monomial(p, i + j - e))
    return Poly(params.nvars, {lead: 1}) - Poly(params.nvars, {tail: 1})


def psi_by_subtraction(params: CurveParams, i: int) -> Poly:
    """psi(b, i), built as phi_by_subtraction builds phi(i, j)."""
    p, a, b, d = params.p, params.a, params.b, params.d
    lead = mono_mul(variable_monomial(p, b + i), variable_monomial(p, p, a))
    tail = mono_mul(variable_monomial(p, i), variable_monomial(p, 0, a + d))
    return Poly(params.nvars, {lead: 1}) - Poly(params.nvars, {tail: 1})


def lift(poly: Poly, sym) -> ModElement:
    """The module element poly * sym: each term of poly on the one symbol."""
    return ModElement(poly.nvars, {(m, sym): c for m, c in poly.terms.items()})


def syzygy_B_lifted(params: CurveParams, i: int, j: int) -> ModElement:
    """B(i, j) = phi(i, j) * Psi(p-b) - psi(b, p-b) * Phi(i, j), from the
    binomials of phi_by_subtraction and psi_by_subtraction: the reference
    for the B family of syzygy.syzygy_basis."""
    top = params.p - params.b
    return (lift(phi_by_subtraction(params, i, j), psi_symbol(params, top))
            - lift(psi_by_subtraction(params, top), phi_symbol(params, i, j)))


def patil_by_terms(params: CurveParams) -> PatilSet:
    """The classical set, each term a product of variable_monomial powers:
    the reference for generators.patil_generators."""
    p, a, b, d = params.p, params.a, params.b, params.d
    nv = params.nvars

    def term(*factors) -> Poly:
        mono = (0,) * nv
        for idx, power in factors:
            mono = mono_mul(mono, variable_monomial(p, idx, power))
        return Poly(nv, {mono: 1})

    xis = {}
    for i in range(1, p - 1):
        for j in range(i, p - 1):
            if i + j <= p - 1:
                xis[(i, j)] = term((i, 1), (j, 1)) - term((i + j, 1), (0, 1))
            else:
                xis[(i, j)] = term((i, 1), (j, 1)) - term((i + j + 1 - p, 1), (p - 1, 1))
    phis = {
        i: term((i + 1, 1), (p - 1, 1)) - term((i, 1), (p, 1)) for i in range(0, p - 1)
    }
    psis = {
        j: term((b + j, 1), (p, a)) - term((j, 1), (0, a + d)) for j in range(0, p - b)
    }
    theta = term((p, a + 1)) - term((p - b, 1), (0, a + d))
    return PatilSet(params=params, xis=xis, phis=phis, psis=psis, theta=theta)


def fraction_rank(rows) -> int:
    """The rank over the rationals of a matrix given as rows, by Gaussian
    elimination on Fractions."""
    rows, rank = [[Fraction(v) for v in row] for row in rows], 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def betti_2_by_homology(params: CurveParams) -> dict:
    """beta_2(s) at each weight s where it is non-zero: dim H~_1(D_s) of the
    squarefree divisor complex D_s = {F : s - sum_F m_i in S} (Miller,
    Sturmfels, Thm 9.2), as the edges less the exact ranks of the boundary
    maps from edges and from triangles, with membership from
    semigroup_membership.  Past F(S) plus the sum of all m_i every face is
    in D_s, its 2-skeleton is full and H~_1 vanishes, so the weights below
    that bound are all of them."""
    gens, known = params.generators, {}

    def member(x: int) -> bool:
        if x not in known:
            known[x] = x >= 0 and semigroup_membership(params, x) is not None
        return known[x]

    # the Frobenius number F(S): the last gap before m0 members in a row
    x, run, frobenius = 0, 0, -1
    while run < params.m0:
        run, frobenius = (run + 1, frobenius) if member(x) else (0, x)
        x += 1
    out = {}
    for s in range(frobenius + sum(gens) + 1):
        faces = [[f for f in combinations(range(len(gens)), k)
                  if member(s - sum(gens[i] for i in f))] for k in (1, 2, 3)]
        # the boundary sends face f to sum_k (-1)^k (f less its k-th vertex)
        d1, d2 = ([[sum((-1) ** k for k in range(len(f)) if f[:k] + f[k + 1:] == g)
                    for f in upper] for g in lower] for lower, upper in zip(faces, faces[1:]))
        h = len(faces[1]) - fraction_rank(d1) - fraction_rank(d2)
        if h:
            out[s] = h
    return out
