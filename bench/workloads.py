"""The three benchmark workloads: seeded task lists, runners and checks.

Each workload is a fixed schedule of problem sizes, so that a pass costs the
same on every seed.  The seed draws the concrete inputs of each size: spins,
cover labels within a monodromy block, SL(2,Z) words and relabellings of the
input surfaces, cover classes, parameters (b, e) and discriminants, and the
task order.  The library receives only plain data: ints and origami texts.

A runner makes the public calls behind one CLI command and returns its
output as plain JSON data; it builds every `Origami` afresh, so the
per-object caches never carry over from one pass to the next.  A check
recomputes the output's headline numbers from the paper's tables or from an
independent cross-check and returns the list of failures.
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import flatcover  # noqa: E402
from flatcover import (classify, covers, lshape, monodromy,  # noqa: E402
                       origami)

if not Path(flatcover.__file__).resolve().is_relative_to(SRC.resolve()):
    raise ImportError(f"flatcover imported from {flatcover.__file__}, not from {SRC}")

WORKLOADS = ("census", "covers", "monodromy")

# -- reference data from the paper -------------------------------------------

#: Table 1: cyclic decagon echo counts N(n) for n = 2..15
TABLE1 = (3, 1, 3, 8, 3, 1, 3, 1, 24, 3, 3, 1, 3, 8)

#: Table 2: orbits of the 15 double covers, (hyperelliptic, odd), by D mod 8
TABLE2 = {
    0: (((2,), (3, 5, 9, 13)), ((1, 7, 11, 15), (4, 6), (8, 10, 12, 14))),
    1: (((2, 5), (3, 9, 13)), ((1, 6, 8, 11, 12, 15), (4, 10, 14), (7,))),
    4: (((2, 3, 9, 13), (5,)), ((1, 4, 11, 14), (6, 7, 8, 12), (10, 15))),
    5: (((2, 3, 5, 9, 13),), ((1, 8, 11, 12, 14), (4, 6, 7, 10, 15))),
}

#: the double covers whose lifts lie in the hyperelliptic component
HYP_LABELS = frozenset({2, 3, 5, 9, 13})

#: order of <H, V> (with X when D = 1 mod 8) mod 2 and of the constrained
#: subgroup of Sp(4, F2), by D mod 8
MOD2_ORDERS = {0: 8, 1: 12, 4: 8, 5: 10}


@dataclass(frozen=True)
class Task:
    """One call into the library.  `args` go to the runner; `expect` holds
    what the check needs and never reaches the library."""

    kind: str
    args: tuple
    expect: dict = field(default_factory=dict)


# -- input generation ---------------------------------------------------------

def _cycles_text(images) -> str:
    seen = [False] * len(images)
    out = []
    for s in range(len(images)):
        if seen[s] or images[s] == s:
            continue
        cyc = []
        x = s
        while not seen[x]:
            seen[x] = True
            cyc.append(str(x + 1))
            x = images[x]
        out.append("(" + ",".join(cyc) + ")")
    return "".join(out)


def origami_text(h, v) -> str:
    return f"n={len(h)} h={_cycles_text(h)} v={_cycles_text(v)}"


def _inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return inv


def present(h, v, rng: random.Random, word_length: int = 8) -> str:
    """Text of a random member of the SL(2,Z)-orbit of (h, v): a seeded word
    in L and R, then a seeded relabelling of the squares."""
    h, v = list(h), list(v)
    for _ in range(word_length):
        if rng.random() < 0.5:       # L: h -> v^-1 h
            vi = _inverse(v)
            h = [vi[x] for x in h]
        else:                        # R: v -> h^-1 v
            hi = _inverse(h)
            v = [hi[x] for x in v]
    n = len(h)
    sigma = list(range(n))
    rng.shuffle(sigma)
    h2, v2 = [0] * n, [0] * n
    for x in range(n):
        h2[sigma[x]] = sigma[h[x]]
        v2[sigma[x]] = sigma[v[x]]
    return origami_text(h2, v2)


def sts_spins(n: int):
    """(b, e) of each spin component of W_{n^2} with n-square surfaces."""
    if n % 2 == 0:
        return [(n * n // 4, 0)]
    return [((n * n - 1) // 4, 1), ((n * n - 1) // 4, -1)]


def admissible(D: int):
    """The (b, e) with D = e^2 + 4b accepted by `echoes_of_WD`."""
    out = []
    for e in (-1, 0, 1):
        if (D - e * e) % 4:
            continue
        b = (D - e * e) // 4
        if e + 1 < b and not (e == 1 and (b % 2 or b <= 2)):
            out.append((b, e))
    return out


def _double_cover_lift(b: int, e: int, label: int):
    base = origami.l_origami(b, e)
    basis = list(base.basis)
    for c in covers.all_double_covers(base.origami, basis):
        if covers.cover_label(basis, c)[1] == label:
            lift = c.lift()
            return lift.h.images, lift.v.images
    raise ValueError(f"no double cover with label {label}")


def _block(D: int, label: int):
    hyp, odd = TABLE2[D % 8]
    return next(blk for blk in hyp + odd if label in blk)


def census_tasks(rng: random.Random):
    tasks = [Task("sts", (11,), {"n": 11})]
    # one orbit query per n; the block (so the orbit) is fixed per n and the
    # seed picks the spin, the label within the block and the presentation
    for n, block in ((8, (3, 5, 9, 13)), (9, (3, 9, 13)), (10, (10, 15)),
                     (12, (2,))):
        b, e = rng.choice(sts_spins(n))
        label = rng.choice(block)
        text = present(*_double_cover_lift(b, e, label), rng)
        tasks.append(Task("orbit", (text,), {"n": n, "b": b, "e": e, "label": label}))
    return tasks


def _primitive_values(m: int, rng: random.Random):
    while True:
        values = tuple(rng.randrange(m) for _ in range(4))
        if gcd(gcd(values[0], values[1]), gcd(gcd(values[2], values[3]), m)) == 1:
            return values


def covers_tasks(rng: random.Random):
    tasks = [Task("covers_l", (42, 1)), Task("covers_l", (42, -1)),   # d = 13
             Task("covers_l", (81, 0))]                                 # d = 18
    # generic path: SL(2,Z) images of L-surfaces, away from the L shape
    for b, e in ((25, 0), rng.choice([(30, 1), (30, -1)])):
        base = origami.l_origami(b, e).origami
        while True:
            text = present(base.h.images, base.v.images, rng)
            if origami.Origami.from_text(text).canonical_form() != base.canonical_form():
                break
        tasks.append(Task("covers_text", (text,), {"squares": base.n}))
    # Z/m covers of the 3-square L(2,-1): seeded cover classes
    for m in range(3, 8):
        picks = tuple(_primitive_values(m, rng) for _ in range(3))
        tasks.append(Task("cyclic", (2, -1, m, picks)))
    # orbits of symmetric lifts: a fixed class per m, seeded presentation
    for m in (5, 7):
        base = origami.l_origami(2, -1)
        c = covers.cover_from_basis_values(base.origami, m, list(base.basis), (1, 0, 0, 0))
        lift = c.lift()
        text = present(lift.h.images, lift.v.images, rng)
        tasks.append(Task("lift_orbit", (text,), {"m": m, "b": 2, "e": -1}))
    return tasks


def _closure_pool(m: int, bmax: int = 36):
    pool = []
    for b in range(2, bmax + 1):
        for e in (-1, 0, 1):
            if e + 1 >= b or (e == 1 and b % 2):
                continue
            if m == 5 and (b % 5 == 0 or (b - e - 1) % 5 == 0):
                continue        # keep the full-size closures (14400..15600)
            if m == 7 and b % 7 and (b - e - 1) % 7:
                continue        # only these finish under the default cap
            pool.append((b, e))
    return pool


def monodromy_tasks(rng: random.Random):
    tasks = [Task("decagon", (15,)), Task("decagon", (18,))]
    for m, count in ((3, 1), (4, 1), (5, 3), (7, 1)):
        for b, e in rng.sample(_closure_pool(m), count):
            tasks.append(Task("closure", (b, e, m)))
    pairs = [(D, e) for D in range(5, 3000) for _, e in admissible(D)]
    tasks.append(Task("echoes", (tuple(sorted(rng.sample(pairs, 200))),)))
    by_class = {}
    for D in range(5, 400):
        for b, e in admissible(D):
            by_class.setdefault(D % 8, []).append((b, e))
    classes = rng.sample(sorted(by_class), 2)
    tasks.append(Task("sp4", (tuple(rng.choice(by_class[c]) for c in classes),)))
    tasks.append(Task("periods", ()))
    twist_params = [(b, e) for b in range(2, 60) for e in (-1, 0, 1)
                    if e + 1 < b and not (e == 1 and b % 2)]
    tasks.append(Task("twists", (tuple(rng.sample(twist_params, 40)),)))
    squares = [(d, e) for d in range(3, 40)
               for e in ([0] if d % 2 == 0 else [-1] if d == 3 else [1, -1])]
    tasks.append(Task("primitive", (tuple(rng.sample(squares, 8)),)))
    return tasks


_MAKERS = {"census": census_tasks, "covers": covers_tasks,
           "monodromy": monodromy_tasks}


def make_tasks(workload: str, seed: int) -> list[Task]:
    """The task list of one pass; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    tasks = _MAKERS[workload](rng)
    rng.shuffle(tasks)
    return tasks


# -- runners ------------------------------------------------------------------

def run_sts(n):
    return classify.verify_sts_orbits(n, cap=max(n, 11))


def run_orbit(text):
    report = origami.Origami.from_text(text).sl2z_orbit()
    reps = report.representatives
    return {"size": report.size, "stratum": report.stratum,
            "reduced": report.reduced, "distinct": len(set(reps)),
            "reps_sha": digest(list(reps))}


def _cover_rows(o, basis):
    rows = []
    for c in covers.all_double_covers(o, basis):
        gamma, label = covers.cover_label(basis, c)
        lift = c.lift()
        rows.append({"label": label, "gamma": list(gamma), "lift": lift.to_text(),
                     "stratum": str(lift.stratum()), "reduced": lift.is_reduced(),
                     "translations": len(lift.translations()),
                     "arf": lift.arf_invariant()})
    rows.sort(key=lambda r: r["label"])
    return rows


def run_covers_l(b, e):
    base = origami.l_origami(b, e)
    return _cover_rows(base.origami, list(base.basis))


def run_covers_text(text):
    o = origami.Origami.from_text(text)
    return _cover_rows(o, o.symplectic_basis())


def run_cyclic(b, e, m, picks):
    base = origami.l_origami(b, e)
    basis = list(base.basis)
    out = {"covers": len(covers.cyclic_covers(base.origami, m, basis)), "lifts": []}
    for values in picks:
        c = covers.cover_from_basis_values(base.origami, m, basis, values)
        lift = c.lift()
        deck = c.deck_shift()
        quotient = lift.quotient_by_translation(deck)
        out["lifts"].append({
            "squares": lift.n, "genus": lift.stratum().genus,
            "translations": len(lift.translations()), "deck_order": deck.order(),
            "quotient": [list(p) for p in quotient.canonical_form()]})
    return out


def run_lift_orbit(text):
    o = origami.Origami.from_text(text)
    return {"size": len(o.sl2z_orbit_forms()), "squares": o.n,
            "translations": len(o.translations())}


def run_decagon(n):
    gens = [monodromy.mat_mod(monodromy.rho_R(), n), monodromy.mat_mod(monodromy.rho_T(), n)]
    parts = monodromy.orbit_partition(gens, monodromy.primitive_vectors(n), n)
    return {"N": len(parts), "sizes": sorted(len(p) for p in parts)}


def run_closure(b, e, m):
    group = monodromy.group_closure([monodromy.mat_H(b, e), monodromy.mat_V(b, e)], m)
    return {"order": len(group)}


def run_echoes(pairs):
    out = []
    for D, e in pairs:
        t = classify.echoes_of_WD(D, e)
        out.append([D, e, [list(x) for x in t.hyp_orbits], [list(x) for x in t.odd_orbits]])
    return out


def run_sp4(params):
    out = {"sp4": len(monodromy.sp4_f2()), "groups": []}
    for b, e in params:
        gens = [monodromy.mat_H(b, e), monodromy.mat_V(b, e)]
        hv = len(monodromy.group_closure(gens, 2))
        order = hv
        if (e * e + 4 * b) % 8 == 1:
            order = len(monodromy.group_closure(gens + [monodromy.mat_X()], 2))
        sub = len(monodromy.constrained_subgroup(monodromy.mat_T(b, e), classify.HYP_LABELS))
        out["groups"].append([b, e, hv, order, sub])
    return out


def run_periods():
    return monodromy.verify_decagon_periods()


def run_twists(params):
    return [[b, e, [list(row) for row in lshape.horizontal_twist_matrix(b, e)],
             [list(row) for row in lshape.vertical_twist_matrix(b, e)],
             str(lshape.modulus_ratio("horizontal", b, e).as_fraction()),
             str(lshape.modulus_ratio("vertical", b, e).as_fraction())]
            for b, e in params]


def run_primitive(params):
    return [[d, e, [classify.is_primitive_cover(d, e, l) for l in range(1, 16)],
             [classify.primitive_cover_oracle(d, e, l) for l in range(1, 16)]]
            for d, e in params]


RUNNERS = {
    "sts": run_sts, "orbit": run_orbit, "covers_l": run_covers_l,
    "covers_text": run_covers_text, "cyclic": run_cyclic,
    "lift_orbit": run_lift_orbit, "decagon": run_decagon, "closure": run_closure,
    "echoes": run_echoes, "sp4": run_sp4, "periods": run_periods,
    "twists": run_twists, "primitive": run_primitive,
}


def run_task(task: Task):
    return RUNNERS[task.kind](*task.args)


# -- work units ---------------------------------------------------------------

def work(task: Task, result) -> int:
    """Work units of one task: orbit members enumerated (census), lifted
    surfaces analysed (covers), vectors partitioned plus group elements
    generated (monodromy)."""
    k = task.kind
    if k == "sts":
        return sum(s["base_orbit_size"] + sum(o["size"] for o in s["orbits"])
                   for s in result["spins"])
    if k == "orbit":
        return result["size"]
    if k in ("covers_l", "covers_text"):
        return len(result)
    if k == "cyclic":
        return len(result["lifts"])
    if k == "lift_orbit":
        return 1
    if k == "decagon":
        return sum(result["sizes"])
    if k == "closure":
        return result["order"]
    if k == "echoes":
        return 15 * len(result)
    if k == "sp4":
        return result["sp4"] + sum(hv + order + sub for _, _, hv, order, sub in result["groups"])
    return 0


# -- checks -------------------------------------------------------------------

def _sp4_order(m: int) -> int:
    """|Sp(4, Z/m)|."""
    order = 1
    p = 2
    while m > 1:
        k = 0
        while m % p == 0:
            m //= p
            k += 1
        if k:
            order *= p ** (10 * (k - 1)) * p ** 4 * (p * p - 1) * (p ** 4 - 1)
        p += 1
    return order


def _base_orbit_size(b: int, e: int) -> int:
    return len(origami.l_origami(b, e).origami.sl2z_orbit_forms())


def _formula_base_size(n: int, d: int, e: int) -> int:
    a_n, b_n = classify.count_formulas(n)
    return a_n if (d - e) % 4 == 0 else b_n


def check_sts(task, r):
    n = task.expect["n"]
    bad = []
    if not r["ok"] or r["orbit_count"] != r["expected_orbit_count"]:
        bad.append(f"n={n}: {r['orbit_count']} orbits, want {r['expected_orbit_count']}")
    hyp, odd = TABLE2[(n * n) % 8]
    blocks = sorted(hyp + odd)
    for s in r["spins"]:
        base = s["base_orbit_size"]
        if n % 2 and base != _formula_base_size(n, s["d"], s["e"]):
            bad.append(f"spin {s['e']}: base orbit {base} disagrees with the counting formula")
        groups = sorted(tuple(sorted(o["labels"])) for o in s["orbits"])
        if groups != blocks:
            bad.append(f"spin {s['e']}: label groups {groups} are not the Table 2 blocks")
        for o in s["orbits"]:
            if (o["arf"] == 0) != (set(o["labels"]) <= HYP_LABELS):
                bad.append(f"spin {s['e']}: Arf {o['arf']} on labels {o['labels']}")
            if o["translation_order"] == 2 and o["size"] != base * len(o["labels"]):
                bad.append(f"spin {s['e']}: size {o['size']} != {base} x {len(o['labels'])}")
    if n == 11:
        if r.get("spin0_sizes") != [225 * k for k in (1, 2, 3, 3, 6)]:
            bad.append(f"n=11 spin-0 sizes {r.get('spin0_sizes')}")
        if r.get("fourth_size_flag") is not True:
            bad.append("n=11 fourth_size_flag is not set")
    return bad


def check_orbit(task, r):
    x = task.expect
    o = origami.Origami.from_text(task.args[0])
    block = _block(x["n"] ** 2, x["label"])
    bad = []
    if r["stratum"] != "H(2,2)" or not r["reduced"]:
        bad.append(f"stratum {r['stratum']}, reduced {r['reduced']}")
    if r["distinct"] != r["size"]:
        bad.append(f"{r['distinct']} distinct representatives for size {r['size']}")
    if len(o.translations()) == 2:
        want = _base_orbit_size(x["b"], x["e"]) * len(block)
        if r["size"] != want:
            bad.append(f"orbit size {r['size']}, product rule gives {want}")
    return bad


def _check_rows(rows, squares, hyp_labels=None):
    bad = []
    labels = [row["label"] for row in rows]
    if sorted(labels) != list(range(1, 16)):
        bad.append(f"labels {labels}")
    for row in rows:
        x1, y1, x2, y2 = row["gamma"]
        if row["label"] != x1 + 2 * y1 + 4 * x2 + 8 * y2:
            bad.append(f"label {row['label']} does not match gamma {row['gamma']}")
        if row["stratum"] != "H(2,2)" or not row["reduced"] or row["translations"] != 2:
            bad.append(f"label {row['label']}: {row['stratum']}, reduced {row['reduced']}, "
                       f"{row['translations']} translations")
        if not row["lift"].startswith(f"n={2 * squares} "):
            bad.append(f"label {row['label']}: lift is not a {2 * squares}-square surface")
    arf0 = {row["label"] for row in rows if row["arf"] == 0}
    if hyp_labels is not None and arf0 != hyp_labels:
        bad.append(f"Arf-0 labels {sorted(arf0)}, want {sorted(hyp_labels)}")
    if len(arf0) != 5:
        bad.append(f"{len(arf0)} lifts with Arf 0, want 5")
    return bad


def check_covers_l(task, rows):
    b, e = task.args
    return _check_rows(rows, origami.l_origami(b, e).n, HYP_LABELS)


def check_covers_text(task, rows):
    return _check_rows(rows, task.expect["squares"])


def check_cyclic(task, r):
    b, e, m, picks = task.args
    base = origami.l_origami(b, e).origami
    want_form = [list(p) for p in base.canonical_form()]
    bad = []
    if r["covers"] != covers.primitive_vector_count(m):
        bad.append(f"{r['covers']} Z/{m} covers, want {covers.primitive_vector_count(m)}")
    for values, lift in zip(picks, r["lifts"]):
        if lift["squares"] != m * base.n or lift["genus"] != m + 1:
            bad.append(f"{values}: {lift['squares']} squares, genus {lift['genus']}")
        if lift["deck_order"] != m or lift["translations"] % m:
            bad.append(f"{values}: deck order {lift['deck_order']}, "
                       f"{lift['translations']} translations")
        if lift["quotient"] != want_form:
            bad.append(f"{values}: quotient by the deck translation is not the base")
    if len(r["lifts"]) != len(picks):
        bad.append("missing lifts")
    return bad


def check_lift_orbit(task, r):
    x = task.expect
    base = _base_orbit_size(x["b"], x["e"])
    squares = x["m"] * origami.l_origami(x["b"], x["e"]).n
    bad = []
    if r["squares"] != squares or r["translations"] != x["m"]:
        bad.append(f"lift has {r['squares']} squares and {r['translations']} translations")
    if r["size"] % base:
        bad.append(f"orbit size {r['size']} is not a multiple of the base orbit {base}")
    return bad


def check_decagon(task, r):
    n = task.args[0]
    bad = []
    if sum(r["sizes"]) != covers.primitive_vector_count(n) or len(r["sizes"]) != r["N"]:
        bad.append(f"orbit sizes sum to {sum(r['sizes'])}, "
                   f"want {covers.primitive_vector_count(n)}")
    if n <= 15 and r["N"] != TABLE1[n - 2]:
        bad.append(f"N({n}) = {r['N']}, Table 1 gives {TABLE1[n - 2]}")
    return bad


def check_closure(task, r):
    b, e, m = task.args
    if _sp4_order(m) % r["order"]:
        return [f"|<H,V> mod {m}| = {r['order']} does not divide |Sp(4,Z/{m})|"]
    return []


def check_echoes(task, r):
    bad = []
    for D, e, hyp, odd in r:
        want_hyp, want_odd = TABLE2[D % 8]
        if [tuple(x) for x in hyp] != list(want_hyp) or [tuple(x) for x in odd] != list(want_odd):
            bad.append(f"D={D}, e={e}: {hyp} {odd}")
    if [(D, e) for D, e, _, _ in r] != list(task.args[0]):
        bad.append("tables missing")
    return bad


def check_sp4(task, r):
    bad = [] if r["sp4"] == 720 else [f"|Sp(4,F2)| = {r['sp4']}"]
    for b, e, hv, order, sub in r["groups"]:
        cls = (e * e + 4 * b) % 8
        if order != MOD2_ORDERS[cls] or sub != MOD2_ORDERS[cls]:
            bad.append(f"(b,e)=({b},{e}): order {order}, constrained {sub}, "
                       f"want {MOD2_ORDERS[cls]}")
        if cls == 1 and hv != 6:
            bad.append(f"(b,e)=({b},{e}): <H,V> mod 2 has order {hv}, want 6")
    return bad


def check_periods(task, r):
    if r["ok"] and r["rank"] == 4 and r["identities_checked"] == 8 and not r["failures"]:
        return []
    return [f"decagon periods: {r}"]


def check_twists(task, r):
    bad = []
    for b, e, H, V, ratio_h, ratio_v in r:
        if H != [list(x) for x in monodromy.mat_H(b, e)] or V != [list(x) for x in monodromy.mat_V(b, e)]:
            bad.append(f"(b,e)=({b},{e}): multitwists differ from H, V")
        if ratio_h != str(b) or ratio_v != str(b - e - 1):
            bad.append(f"(b,e)=({b},{e}): modulus ratios {ratio_h}, {ratio_v}")
    return bad


def check_primitive(task, r):
    return [f"(d,e)=({d},{e}): closed form {closed} vs oracle {oracle}"
            for d, e, closed, oracle in r if closed != oracle]


CHECKS = {
    "sts": check_sts, "orbit": check_orbit, "covers_l": check_covers_l,
    "covers_text": check_covers_text, "cyclic": check_cyclic,
    "lift_orbit": check_lift_orbit, "decagon": check_decagon,
    "closure": check_closure, "echoes": check_echoes, "sp4": check_sp4,
    "periods": check_periods, "twists": check_twists, "primitive": check_primitive,
}


def check(task: Task, result) -> list[str]:
    return CHECKS[task.kind](task, result)


def digest(result) -> str:
    """Stable fingerprint of a task's output, to compare passes."""
    return hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()
