"""Shared fixtures: seeded random networks, tiny hand-built nets, and
scalar reference implementations of vectorized code."""
from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from scipy.stats import chi2 as _chi2_dist

from rdtrial.cohort import MISSING, Cohort, encode_columns, unique_rows
from rdtrial.errors import DataError, DegenerateTable, NonFiniteValue, UnknownState
from rdtrial.inference import posterior
from rdtrial.model import (
    Cpt,
    DbnTemplate,
    DiscreteNetwork,
    VariableDef,
    iter_parent_configs,
    slice_rank,
    unroll,
)
from rdtrial.preprocess import BinningScheme
from rdtrial.rddo import ScoredRecords
from rdtrial.stats import EXPECTED_MIN, TestResult
from rdtrial.synth import ScenarioSpec, solve_gap

# Keep the dense joint small enough that the enumeration oracle stays fast;
# node count and cardinality still span the full supported range.
_JOINT_CELL_CAP = 1 << 16


def random_network(
    rng: np.random.Generator,
    min_nodes: int = 3,
    max_nodes: int = 12,
    max_card: int = 4,
    max_parents: int = 3,
) -> DiscreteNetwork:
    """Random DAG with Dirichlet CPT rows; parents only among earlier nodes."""
    while True:
        n = int(rng.integers(min_nodes, max_nodes + 1))
        cards = rng.integers(2, max_card + 1, size=n)
        if int(np.prod(cards)) <= _JOINT_CELL_CAP:
            break
    names = [f"v{i}" for i in range(n)]
    variables = [
        VariableDef(name=names[i], states=tuple(f"s{j}" for j in range(cards[i])))
        for i in range(n)
    ]
    arcs: list[tuple[str, str]] = []
    cpts: dict[str, Cpt] = {}
    for i in range(n):
        k = int(rng.integers(0, min(i, max_parents) + 1))
        # drawn order, not sorted: CPTs must not assume parents in index order
        parents = tuple(names[j] for j in rng.choice(i, size=k, replace=False).tolist())
        arcs.extend((p, names[i]) for p in parents)
        n_cfg = int(np.prod([cards[names.index(p)] for p in parents])) if parents else 1
        rows = rng.dirichlet(np.ones(cards[i]), size=n_cfg)
        cpts[names[i]] = Cpt(child=names[i], parents=parents, rows=rows)
    return DiscreteNetwork(variables=variables, arcs=arcs, cpts=cpts)


def with_structural_zeros(
    net: DiscreteNetwork, rng: np.random.Generator, frac: float = 0.3
) -> DiscreteNetwork:
    """Copy of net with about frac of its CPT cells set to zero.

    Every row keeps at least one nonzero cell and is renormalized, so some
    evidence patterns become impossible while the network stays valid.
    """
    cpts = {name: _with_zero_cells(cpt, rng, frac) for name, cpt in net.cpts.items()}
    return DiscreteNetwork(net.variables, net.arcs, cpts, net.outcomes)


def _with_zero_cells(cpt: Cpt, rng: np.random.Generator, frac: float) -> Cpt:
    """Copy of cpt with about frac of its cells zero; each row keeps one
    nonzero cell and is renormalized."""
    rows = cpt.rows.copy()
    zero = rng.random(rows.shape) < frac
    zero[np.arange(len(rows)), rng.integers(0, rows.shape[1], size=len(rows))] = False
    rows[zero] = 0.0
    return Cpt(cpt.child, cpt.parents, rows / rows.sum(axis=1, keepdims=True))


def disjoint_union(a: DiscreteNetwork, b: DiscreteNetwork) -> DiscreteNetwork:
    """a and b side by side as one network of two components; b's variables
    are renamed w0, w1, ... so the names stay distinct."""
    rename = {n: f"w{i}" for i, n in enumerate(b.names)}
    variables = [*a.variables,
                 *(VariableDef(name=rename[v.name], states=v.states) for v in b.variables)]
    arcs = [*a.arcs, *((rename[p], rename[c]) for p, c in b.arcs)]
    cpts = dict(a.cpts)
    for name, cpt in b.cpts.items():
        cpts[rename[name]] = Cpt(rename[name], tuple(rename[p] for p in cpt.parents), cpt.rows)
    return DiscreteNetwork(variables=variables, arcs=arcs, cpts=cpts)


def panel_network(rng: np.random.Generator, horizon: int = 3) -> DiscreteNetwork:
    """panel_template(rng) unrolled over slices 0..horizon; horizon 3 gives
    14 nodes."""
    return unroll(panel_template(rng), horizon)


def panel_template(rng: np.random.Generator, zero_frac: float = 0.0) -> DbnTemplate:
    """A panel template with Dirichlet CPT rows, about zero_frac of their
    cells set to zero (structural zeros; every row keeps one nonzero cell).

    A static and an entry variable feed lab@0; each slice holds lab -> drug
    -> out with lab -> out, and lab and drug carry over to the next slice
    (drug also into the next lab).
    """
    variables = (
        VariableDef("sex", ("f", "m"), kind="static"),
        VariableDef("age", ("young", "mid", "old"), kind="entry"),
        VariableDef("lab", ("low", "normal", "high")),
        VariableDef("drug", ("no", "yes")),
        VariableDef("out", ("no", "yes")),
    )
    card = {"sex": 2, "age@entry": 3, "lab": 3, "drug": 2, "out": 2}
    families = {
        "sex": (), "age@entry": (),
        "lab@0": ("sex", "age@entry"), "drug@0": ("lab@0",), "out@0": ("lab@0", "drug@0"),
        "lab@t": ("lab@t-1", "drug@t-1"), "drug@t": ("lab@t", "drug@t-1"),
        "out@t": ("lab@t", "drug@t"),
    }

    def base(name: str) -> str:
        return name if name in card else name.split("@")[0]

    cpts = {}
    for key, parents in families.items():
        n_cfg = int(np.prod([card[base(p)] for p in parents])) if parents else 1
        cpt = Cpt(key, parents, rng.dirichlet(np.ones(card[base(key)]), size=n_cfg))
        cpts[key] = _with_zero_cells(cpt, rng, zero_frac) if zero_frac else cpt
    arcs = (("lab", "drug"), ("lab", "out"), ("drug", "out"))
    return DbnTemplate(
        variables=variables,
        slice0_arcs=arcs,
        intra_arcs=arcs,
        inter_arcs=(("lab", "lab"), ("drug", "drug"), ("drug", "lab")),
        static_arcs=(("sex", "lab", (0,)), ("age", "lab", (0,))),
        cpts=cpts,
    )


def random_evidence(
    rng: np.random.Generator, net: DiscreteNetwork, exclude: tuple[str, ...] = ()
) -> dict[str, int]:
    """Random evidence over a random subset of nodes, possibly empty."""
    pool = [n for n in net.names if n not in exclude]
    k = int(rng.integers(0, len(pool) + 1))
    picked = rng.choice(len(pool), size=k, replace=False) if k else []
    return {pool[int(i)]: int(rng.integers(0, net.card(pool[int(i)]))) for i in picked}


def confounded_triple(bias: float = 0.12) -> DiscreteNetwork:
    """Plain three-node confounded network z -> x, z -> y, x -> y, with the
    CPTs ``synth.solve_gap(bias)`` designs.

    States are "0"/"1". At the default bias the CPTs are the canonical
    family: P(x=1|z) = 0.2/0.8 and P(y=1|x=1,z) = 0.3/0.7, which gives
    P(y=1|x=1) = 0.62 and P(y=1|do(x=1)) = 0.50.
    """
    d = solve_gap(bias)
    variables = [
        VariableDef("z", ("0", "1"), kind="static"),
        VariableDef("x", ("0", "1"), kind="static"),
        VariableDef("y", ("0", "1"), kind="static"),
    ]
    arcs = [("z", "x"), ("z", "y"), ("x", "y")]
    y_rows = []
    for x_val, z_val in iter_parent_configs([2, 2]):  # parents (x, z), x most significant
        a = d.y1_given_x1_z if x_val == 1 else d.y1_given_x0_z
        p1 = a[z_val]
        y_rows.append([1 - p1, p1])
    cpts = {
        "z": Cpt("z", (), [[1 - d.pz1, d.pz1]]),
        "x": Cpt("x", ("z",), [[1 - d.x1_given_z[0], d.x1_given_z[0]],
                               [1 - d.x1_given_z[1], d.x1_given_z[1]]]),
        "y": Cpt("y", ("x", "z"), y_rows),
    }
    return DiscreteNetwork(variables, arcs, cpts)


def chain_network() -> DiscreteNetwork:
    """a -> b -> c with hand-set binary CPTs, for closed-form checks."""
    variables = [
        VariableDef(name="a", states=("0", "1")),
        VariableDef(name="b", states=("0", "1")),
        VariableDef(name="c", states=("0", "1")),
    ]
    cpts = {
        "a": Cpt(child="a", parents=(), rows=np.array([[0.7, 0.3]])),
        "b": Cpt(child="b", parents=("a",), rows=np.array([[0.9, 0.1], [0.4, 0.6]])),
        "c": Cpt(child="c", parents=("b",), rows=np.array([[0.8, 0.2], [0.25, 0.75]])),
    }
    return DiscreteNetwork(
        variables=variables, arcs=[("a", "b"), ("b", "c")], cpts=cpts
    )


def reference_chi2_homogeneity(left: np.ndarray, right: np.ndarray) -> TestResult:
    """Reference oracle: the one-table Pearson chi-square test, coded scalar.

    An independent check on the stacked ``rdtrial.stats.chi2_homogeneity``.

    ``left`` and ``right`` are per-category counts over the same category
    axis. Zero-total categories are dropped; categories whose expected count
    falls below 5 in either group are collapsed into a single bucket. If
    fewer than two categories remain the table is degenerate and
    DegenerateTable is raised (callers treat that as "cannot test").

    No continuity correction is applied. Degrees of freedom = C - 1 for the
    final C categories.
    """
    left = np.asarray(left, dtype=np.float64)
    right = np.asarray(right, dtype=np.float64)
    if left.shape != right.shape or left.ndim != 1:
        raise ValueError("left and right must be 1-D count vectors of equal length")
    n_left = float(left.sum())
    n_right = float(right.sum())
    total = n_left + n_right
    if n_left <= 0 or n_right <= 0:
        raise DegenerateTable("a group has zero total count")

    col = left + right
    keep = col > 0
    left = left[keep]
    right = right[keep]
    col = col[keep]

    exp_left = n_left * col / total
    exp_right = n_right * col / total
    small = (exp_left < EXPECTED_MIN) | (exp_right < EXPECTED_MIN)
    if small.any():
        big = ~small
        l2 = list(left[big])
        r2 = list(right[big])
        bucket_l = float(left[small].sum())
        bucket_r = float(right[small].sum())
        if bucket_l + bucket_r > 0:
            l2.append(bucket_l)
            r2.append(bucket_r)
        left = np.asarray(l2)
        right = np.asarray(r2)
        col = left + right

    if left.size < 2:
        raise DegenerateTable(f"{left.size} usable categor{'y' if left.size == 1 else 'ies'} after collapsing")

    exp_left = n_left * col / total
    exp_right = n_right * col / total
    stat = float(((left - exp_left) ** 2 / exp_left).sum() + ((right - exp_right) ** 2 / exp_right).sum())
    dof = int(left.size - 1)
    p = float(_chi2_dist.sf(stat, dof))
    return TestResult(statistic=stat, p_value=p, dof=dof)


def apply_bins(value: float | None, scheme: BinningScheme) -> int | None:
    """Reference for ``preprocess.bin_column``, one value at a time: the bin
    index for a value under the scheme; None passes through.

    value < cut goes left; a value equal to a cut lands in the right bin.
    Non-finite values raise NonFiniteValue.
    """
    if value is None:
        return None
    value = float(value)
    if not math.isfinite(value):
        raise NonFiniteValue(f"cannot bin non-finite value {value!r}")
    idx = 0
    for cut in scheme.cuts:
        if value < cut:
            break
        idx += 1
    return idx


def sample_power(fp: int, fn: int) -> float:
    """Reference for scan_windows' power column: window power
    1 - FP / (FN + FP), defined as 1.0 when FP = FN = 0."""
    if fp < 0 or fn < 0:
        raise ValueError("counts must be non-negative")
    if fp + fn == 0:
        return 1.0
    return 1.0 - fp / (fn + fp)


def scored_records(scores, labels, names=(), codes=None, ids=None, threshold=None) -> ScoredRecords:
    """The columnar records view that scan_windows takes, built from arrays:
    ``codes`` is the (records, names) evidence code matrix, -1 for a missing
    cell (default: no evidence); ``ids`` default to 0, 1, ..."""
    scores = np.asarray(scores, dtype=np.float64)
    n = len(scores)
    ids = np.arange(n, dtype=np.int64) if ids is None else np.asarray(ids, dtype=np.int64)
    if codes is None:
        codes = np.full((n, len(names)), -1, dtype=np.int64)
    patterns, pattern_of = unique_rows(np.asarray(codes, dtype=np.int64).reshape(n, len(names)))
    masks, mask_of = unique_rows(patterns >= 0)
    return ScoredRecords(ids, scores, np.asarray(labels, dtype=bool), patterns, pattern_of,
                         masks, mask_of, tuple(names), threshold)


def window_records(net: DiscreteNetwork, cohort: Cohort) -> tuple[ScoredRecords, np.ndarray]:
    """A cohort as the (records, window) pair that ``rddo.estimate_effects``
    takes: scored records whose evidence is every cohort column the network
    holds, and the positions that read them in ascending record id. Scores
    and labels are placeholders; no query runs."""
    names = [c for c in cohort.columns if c in net]
    n = len(cohort)
    records = scored_records(np.zeros(n), np.zeros(n, dtype=bool), names,
                             encode_columns(net, cohort, names), cohort.ids)
    return records, np.argsort(cohort.ids, kind="stable")


def reference_requisite(net: DiscreteNetwork, target: str, observed, intervention=None):
    """Reference for ``inference.requisite``: the same walk, with each
    ancestral CPT tested for a structural zero by a count of its nonzero
    cells on every call."""
    seen = set(observed)
    if intervention is not None:
        seen.add(intervention)
    ancestral: set[str] = set()
    stack = [target, *seen]
    while stack:
        name = stack.pop()
        if name not in ancestral:
            ancestral.add(name)
            if name != intervention:
                stack.extend(net.parents(name))
    ancestral.discard(intervention)
    needed: set[str] = set()
    free, stack = {target}, [target]
    while stack:
        v = stack.pop()
        for name in (v, *net.children(v)):
            if name in ancestral and name not in needed:
                needed.add(name)
                for m in (*net.parents(name), name):
                    if m not in seen and m not in free:
                        free.add(m)
                        stack.append(m)
    needed.update(n for n in ancestral - needed
                  if np.count_nonzero(net.cpts[n].rows) < net.cpts[n].rows.size)
    cpts = sorted(needed, key=net.index)
    reads = {m for n in cpts for m in (*net.parents(n), n) if m in seen}
    return tuple(cpts), tuple(sorted(reads, key=net.index))


def reference_sample_cohort(spec: ScenarioSpec) -> Cohort:
    """Reference oracle: ancestral sampling one record at a time, coded scalar.

    An independent check on the column-wise ``rdtrial.synth.sample_cohort``.
    Each record builds its own ``np.random.default_rng((seed, rid, stream))``
    per stream: stream 0 draws one uniform per node in topological order and
    picks the state by ``searchsorted(side="right")`` in the CPT row's
    cumulative sums; stream 1 re-draws the injector covariate with a
    probability that leans with the record's score distance (one posterior
    per distinct score pattern); stream 2 draws one uniform per positive MCAR
    rate. Latent variables are sampled but not exported.
    """
    net = spec.network
    topo = net.topological_order()
    order_cpt = [(name, net.cpts[name]) for name in topo]
    cum = {name: np.cumsum(cpt.rows, axis=1) for name, cpt in order_cpt}
    cards = {name: net.card(name) for name in net.names}

    latent = set(spec.latent)
    columns = tuple(v.name for v in net.variables if v.name not in latent)
    mcar = [(name, rate) for name, rate in spec.mcar.items() if rate > 0.0]
    t_out = slice_rank(spec.outcome)

    inject = spec.injector_covariate if spec.injector_strength != 0.0 else None
    if inject is not None and cards[inject] != 2:
        raise ValueError("injector covariate must be binary")
    score_cache: dict[tuple[tuple[str, int], ...], float] = {}
    pos_idx = net.state_index(spec.outcome, spec.positive_state)

    rows: list[tuple[str | None, ...]] = []
    for rid in range(spec.n):
        rng = np.random.default_rng((spec.seed, rid, 0))
        values: dict[str, int] = {}
        for name, cpt in order_cpt:
            cfg = 0
            for p in cpt.parents:
                cfg = cfg * cards[p] + values[p]
            u = rng.random()
            values[name] = int(np.searchsorted(cum[name][cfg], u, side="right"))

        if inject is not None:
            pattern = tuple(sorted(
                (name, state) for name, state in values.items()
                if name not in latent and name != spec.outcome and slice_rank(name) <= t_out
            ))
            score = score_cache.get(pattern)
            if score is None:
                score = posterior(net, spec.outcome, dict(pattern))[pos_idx]
                score_cache[pattern] = score
            dist = abs(score - spec.reference_threshold)
            lean = spec.injector_strength * max(0.0, dist - spec.injector_offset)
            p_pos = min(0.99, max(0.01, 0.5 + lean))
            rng_inj = np.random.default_rng((spec.seed, rid, 1))
            values[inject] = int(rng_inj.random() < p_pos)

        if mcar:
            rng_mask = np.random.default_rng((spec.seed, rid, 2))
            masked = {name for name, rate in mcar if rng_mask.random() < rate}
        else:
            masked = ()

        rows.append(tuple(
            None if name in masked else net.var(name).states[values[name]]
            for name in columns
        ))
    return Cohort.from_rows(columns=columns, rows=rows)


def reference_write_cohort_csv(cohort: Cohort, path: str | Path) -> None:
    """Reference oracle: the per-row CSV writer, missing cells spelled out.

    An independent check on ``rdtrial.cohort.write_cohort_csv``, which hands
    the rows to one ``writerows`` call and lets csv write None as empty.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cohort.columns)
        for row in cohort.rows:
            writer.writerow([MISSING if cell is None else cell for cell in row])


# ---------------------------------------------------------------------------
# per-cell cohort references: the row-of-strings code the columnar cohort
# replaced. Rows are tuples of str or None; None is a missing cell.
# ---------------------------------------------------------------------------

def reference_read_cohort_rows(path: str | Path) -> tuple[tuple[str, ...], list[tuple]]:
    """Reference oracle for ``read_cohort_csv``: (columns, rows) read one
    cell at a time, with the same header and ragged-row errors."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        columns = tuple(h.strip() for h in header)
        if len(set(columns)) != len(columns):
            twice = next(c for i, c in enumerate(columns) if c in columns[:i])
            raise DataError(f"{path}: column {twice!r} appears twice in the header")
        rows = []
        for lineno, raw in enumerate(reader, start=2):
            if len(raw) != len(columns):
                raise DataError(
                    f"{path}: row {lineno} has {len(raw)} cells, header has {len(columns)}"
                )
            rows.append(tuple(cell if cell != MISSING else None for cell in raw))
    return columns, rows


def reference_encode_columns(net: DiscreteNetwork, columns, rows, ids, names) -> np.ndarray:
    """Reference oracle for ``encode_columns``: a state lookup per cell,
    name by name into a (records, names) matrix; a name the columns lack
    stays -1, and the first unknown label raises UnknownState."""
    out = np.full((len(rows), len(names)), -1, dtype=np.int64)
    for j, name in enumerate(names):
        var = net.var(name)
        if name not in columns:
            continue
        lut = {s: i for i, s in enumerate(var.states)}
        ci = columns.index(name)
        for r, row in enumerate(rows):
            cell = row[ci]
            if cell is None:
                continue
            if cell not in lut:
                raise UnknownState(
                    f"cohort: record {int(ids[r])}, column {name!r}: "
                    f"state {cell!r} is not one of {list(var.states)}"
                )
            out[r, j] = lut[cell]
    return out


def reference_outcome_labels(columns, rows, outcome_nodes, positive_state) -> np.ndarray:
    """Reference oracle for ``learning.outcome_labels``: positive where any
    outcome cell equals the positive state."""
    labels = np.zeros(len(rows), dtype=bool)
    for node in outcome_nodes:
        ci = columns.index(node)
        for r, row in enumerate(rows):
            if row[ci] == positive_state:
                labels[r] = True
    return labels
