"""Seeded inputs of the serving benchmark: the data set and each workload's
operation sequences.

Everything here is deterministic: the data set is fixed (the generator at
``DATA_SEED``), and each workload's operation sequences are a function of
the run's seed, so equal seeds give equal inputs.  The server only ever sees
the generated CSV and the request payloads.

The data is the paper's motivating data-integration setting: four
individually consistent sources report on the same people, and the merge
violates the key ``Name -> Dept, Salary``.  The partial reliability order
``s0>s1, s0>s2, s1>s3, s2>s3`` leaves ``s1`` and ``s2`` unranked, as in the
paper's Example 3, so priority edges are active and pushed queries take the
preference-aware ``prefsql`` route.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

PEOPLE = 2000
#: The data set is held fixed so that run-to-run differences come from the
#: operation stream and the host, not from a different instance; at 2,000
#: people it has 3,227 rows and 1,551 conflicts.
DATA_SEED = 7
SMOKE_PEOPLE = 300
SOURCES = 4
DISAGREEMENT = 0.3
RELATION = "Emp"
FD = "Name -> Dept, Salary"
SOURCE_ORDER = "s0>s1,s0>s2,s1>s3,s2>s3"
FAMILIES = ("Rep", "L", "S", "G", "C")
DEPARTMENTS = ("R&D", "IT", "PR", "HR", "Sales")

#: Timed cold-read operations per client and second of run time that the
#: generator prepares up front.  A client that exhausts its list starts it
#: again, so the "every text is new" property holds only up to this rate.
COLD_OPS_PER_SECOND = 300

#: Shapes per workload, in the order the warm-up touches them.
SHAPES = {
    "hot-read": ("point", "dept", "salary"),
    "cold-read": ("point", "dept", "salary", "selfjoin"),
    "read-write": ("point", "dept"),
}

#: cold-read repeats this shape pattern: two anchored self-joins
#: (witness-index route, several times the cost of a pushed read) in ten
#: operations.  The read p50 then sits inside the pushed population and the
#: read p90 inside the self-join population, away from the boundary.
COLD_PATTERN = (
    "point", "dept", "point", "selfjoin", "point",
    "point", "salary", "point", "selfjoin", "point",
)

#: read-write repeats a cycle of five operations: one /update (inserts
#: and deletes alternate), then reads of three distinct hot queries a, b,
#: c in the order a, b, a, c.  Every write evicts the cached Emp answers,
#: so per cycle the first read pays the mirror re-save and the prefsql
#: rebuild, the repeat of a is an AnswerCache hit, and b and c are plain
#: misses.  Rebuild reads are then a quarter of all reads (the read p90
#: sits inside them) and misses half (the read p50 sits inside them).
RW_READS = (0, 1, 0, 2)

#: Families of the read-write hot set (see _read_write_plan).
RW_FAMILIES = ("Rep", "L", "S", "G")
HOT_POINTS = 6
HOT_SELECTIONS = 2
RW_HOT_PEOPLE = 2
ZIPF_S = 1.1


@dataclass(frozen=True)
class Op:
    """One client operation: a /query read or an /update write."""

    kind: str  # "read", "insert" or "delete"
    payload: Tuple[Tuple[str, object], ...]
    shape: str = ""

    @property
    def path(self) -> str:
        return "/query" if self.kind == "read" else "/update"

    def body(self, tag: str) -> dict:
        body = dict(self.payload)
        body["tag"] = tag
        return body


@dataclass
class Dataset:
    """The generated instance as the benchmark knows it."""

    rows: List[Tuple[str, str, int, str]]
    people: List[str]
    by_person: Dict[str, List[Tuple[str, str, int, str]]] = field(
        default_factory=dict
    )

    @property
    def conflicts(self) -> int:
        return sum(
            len(rows) * (len(rows) - 1) // 2 for rows in self.by_person.values()
        )


def make_dataset(people: int = PEOPLE, seed: int = DATA_SEED) -> Dataset:
    """The merged integration instance with one source label per row."""
    from repro.datagen import integration_instance

    instance, labels = integration_instance(
        people, SOURCES, DISAGREEMENT, rng=random.Random(seed)
    )
    rows = sorted(
        (row["Name"], row["Dept"], row["Salary"], labels[row])
        for row in instance.rows
    )
    dataset = Dataset(rows, [f"p{i}" for i in range(people)])
    for row in rows:
        dataset.by_person.setdefault(row[0], []).append(row)
    return dataset


def write_csv(dataset: Dataset, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["Name", "Dept", "Salary:number", "Src"])
        writer.writerows(dataset.rows)


def server_flags(csv_path: str) -> List[str]:
    """``repro serve`` data flags; everything else stays at its default."""
    return [
        "--csv", csv_path,
        "--relation", RELATION,
        "--fd", FD,
        "--prefer-source", "Src",
        "--source-order", SOURCE_ORDER,
    ]


# Query shapes ---------------------------------------------------------------


def _read(shape: str, text: str, family: str, variables=None) -> Op:
    payload: List[Tuple[str, object]] = [("query", text), ("family", family)]
    if variables:
        payload.append(("variables", tuple(variables)))
    return Op("read", tuple(payload), shape)


def point(person: str, dept: str, family: str) -> Op:
    return _read(
        "point", f"EXISTS s, r . {RELATION}('{person}', '{dept}', s, r)", family
    )


def dept_selection(dept: str, low: int, high: int, family: str) -> Op:
    return _read(
        "dept",
        f"EXISTS s, r . {RELATION}(x, '{dept}', s, r) AND s >= {low} "
        f"AND s <= {high}",
        family,
        ("x",),
    )


def salary_selection(low: int, high: int, family: str) -> Op:
    return _read(
        "salary",
        f"EXISTS d, r, s . {RELATION}(x, d, s, r) AND s >= {low} "
        f"AND s <= {high}",
        family,
        ("x",),
    )


def selfjoin(person: str, is_open: bool, family: str) -> Op:
    """An anchored dirty self-join: does ``person`` have two reports that
    disagree on the department (open: on which departments)?  Blocked
    from SQL, so it runs on the incremental engine's witness-index route."""
    text = (
        f"EXISTS s1, r1, d2, s2, r2 . {RELATION}('{person}', d1, s1, r1) "
        f"AND {RELATION}('{person}', d2, s2, r2) AND d1 != d2"
    )
    if is_open:
        return _read("selfjoin", text, family, ("d1",))
    return _read("selfjoin", f"EXISTS d1 . {text}", family)


def _draw(shape: str, rng: random.Random, people: Sequence[str], family: str) -> Op:
    if shape == "point":
        return point(rng.choice(people), rng.choice(DEPARTMENTS), family)
    if shape == "selfjoin":
        return selfjoin(rng.choice(people), rng.random() < 0.5, family)
    low = rng.randrange(5, 90)
    high = rng.randrange(low + 1, 96)
    if shape == "dept":
        return dept_selection(rng.choice(DEPARTMENTS), low, high, family)
    return salary_selection(low, high, family)


class _UniqueDrawer:
    """Draws operations whose query text never repeats within a run."""

    def __init__(self, rng: random.Random, people: Sequence[str]) -> None:
        self.rng = rng
        self.people = people
        self.seen: set = set()

    def draw(self, shape: str, family: str) -> Op:
        while True:
            op = _draw(shape, self.rng, self.people, family)
            key = dict(op.payload)["query"], family
            if key not in self.seen:
                self.seen.add(key)
                return op


# Workloads ------------------------------------------------------------------


@dataclass
class Plan:
    """A workload's inputs: warm-up operations and per-client sequences."""

    warmup: List[Op]
    sequences: List[List[Op]]
    #: Distinct hot-set reads (hot-read, read-write); empty for cold-read.
    hot: List[Op] = field(default_factory=list)


def _zipf_stream(
    rng: random.Random, items: Sequence[Op], count: int
) -> List[Op]:
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(items))]
    return rng.choices(items, weights=weights, k=count)


def _family_cycle(index: int) -> str:
    return FAMILIES[index % len(FAMILIES)]


def make_plan(
    workload: str,
    seed: int,
    dataset: Dataset,
    seconds: float,
    clients: int,
) -> Plan:
    """The warm-up and timed operation sequences of one workload run."""
    rng = random.Random(f"{workload}:{seed}")
    drawer = _UniqueDrawer(rng, dataset.people)
    # One fresh query per (shape, family) pair, so every lazy per-family
    # survivor table and the first mirror build fall into set-up.
    warmup = [
        drawer.draw(shape, family)
        for shape in SHAPES[workload]
        for family in FAMILIES
    ]
    if workload == "hot-read":
        hot = [
            drawer.draw("point", _family_cycle(i)) for i in range(HOT_POINTS)
        ] + [
            drawer.draw(("dept", "salary")[i % 2], _family_cycle(i + 2))
            for i in range(HOT_SELECTIONS)
        ]
        rng.shuffle(hot)
        length = max(1000, int(3000 * seconds))
        return Plan(warmup + hot, [_zipf_stream(rng, hot, length)], hot)
    if workload == "cold-read":
        length = max(len(COLD_PATTERN), int(COLD_OPS_PER_SECOND * seconds))
        sequences: List[List[Op]] = [[] for _ in range(clients)]
        for position in range(length):
            shape = COLD_PATTERN[position % len(COLD_PATTERN)]
            # One family per pattern cycle: every (shape, family) pair
            # recurs every five cycles.
            family = _family_cycle(position // len(COLD_PATTERN))
            for sequence in sequences:
                sequence.append(drawer.draw(shape, family))
        return Plan(warmup, sequences)
    if workload == "read-write":
        return _read_write_plan(rng, drawer, dataset, seconds, warmup)
    raise ValueError(f"unknown workload {workload!r}")


def _read_write_plan(
    rng: random.Random,
    drawer: _UniqueDrawer,
    dataset: Dataset,
    seconds: float,
    warmup: List[Op],
) -> Plan:
    dirty = [p for p in dataset.people if len(dataset.by_person.get(p, ())) > 1]
    hot_people = rng.sample(dirty, RW_HOT_PEOPLE)
    # Probes on the hot people's reported departments, so the verdicts are
    # not trivially false, plus an open selection whose answers the writes
    # also change.  The hot set leaves out family C: its survivor table is
    # rebuilt lazily after every write (seconds on this data), which would
    # make the workload measure that one rebuild instead of the write path.
    # Set-up builds it once on every workload.
    hot = [
        point(person, rng.choice(dataset.by_person[person])[1], RW_FAMILIES[i])
        for i, person in enumerate(hot_people + hot_people[:1])
    ] + [drawer.draw("dept", RW_FAMILIES[-1])]
    # One candidate row per hot person, with a salary no source reports
    # (sources only use multiples of ten), so each insert is new, creates
    # conflicts with that person's reports, and its delete restores the
    # original instance.
    write_rows = [
        (person, rng.choice(DEPARTMENTS), 10 * rng.randrange(1, 10) + 5, "s1")
        for person in hot_people
    ]
    cycles = max(200, int(300 * seconds))
    sequence: List[Op] = []
    for cycle in range(cycles):
        if cycle % 2 == 0:
            pending = rng.choice(write_rows)
            sequence.append(_write("insert", pending))
        else:
            sequence.append(_write("delete", pending))
        chosen = rng.sample(hot, 3)
        sequence.extend(chosen[index] for index in RW_READS)
    # The warm-up also takes the write path once and returns to the
    # original instance.
    warmup = warmup + hot + [
        _write("insert", write_rows[0]),
        _write("delete", write_rows[0]),
    ]
    return Plan(warmup, [sequence], hot)


def _write(kind: str, row: Tuple) -> Op:
    return Op(
        kind,
        (("op", kind), ("relation", RELATION), ("values", tuple(row))),
        "write",
    )
