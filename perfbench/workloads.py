"""Seeded job lists for the benchmark workloads.

A workload is a cycle of job slots.  Every cycle has the same slots (the
same subcommand, degree, precision and m-list shape) so the job mix, and
with it the throughput, does not depend on the seed; the coefficients are
drawn afresh for each cycle from ``(workload, seed, cycle)``.  The limit-
polynomial and Jensen jobs have no coefficients to draw and cost 0.6 to
1.2 s depending on p alone, so their p follows the cycle number.  The run
repeats cycles until its time is up.  Each cycle has an odd number of
jobs, so the median job falls inside one slot's group of repeats rather
than on the boundary between two groups of different cost.

Inputs are drawn from families fixed by the paper's hypotheses (Turan
sign, p, degree, precision, m-list shape) and written through zerodyn's
versioned file formats.  They are never re-drawn or filtered by running
zerodyn: a job that fails on its input counts as failed.

Each job carries ``expect``, the facts the checker needs, computed here
with plain ``Fraction`` arithmetic and never by calling zerodyn.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

SERIES_HEADER = "# zerodyn series 1"
POLY_HEADER = "# zerodyn poly 1"

# Degree cap for the construction's witness search; also the truncation
# order its series files must reach.
CONSTRUCT_D_CAP = 20
# First stage factor the halving search tries; from 1 the search spends
# most of a 3-stage job on trials far from the accepted gamma.
GAMMA0 = "1/4"


@dataclass
class Job:
    slot: str  # stable name of the job's place in the cycle
    argv: list  # zerodyn CLI arguments, without --output
    expect: dict = field(default_factory=dict)
    after: str | None = None  # slot whose output this job reads (plan file)
    part: str = ""  # group of slots the job belongs to, e.g. "construct-disks"


def _frac_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _rat(rng, num, den, nonzero=False):
    while True:
        x = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if x or not nonzero:
            return x


def _write(path, header, coeffs):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n" + "\n".join(_frac_text(c) for c in coeffs) + "\n")
    return path


# ---------------------------------------------------------------------------
# operator families.  phi(0) = 1 throughout, so the series is already
# normalized and p, alpha, beta read off directly:
#   p = min{n >= 2 : n! c_n != alpha^n},  beta = (p! c_p - alpha^p) / p!.


def _classification(coeffs):
    alpha = coeffs[1]
    for n in range(2, len(coeffs)):
        gap = math.factorial(n) * coeffs[n] - alpha**n
        if gap:
            return {"p": n, "alpha": alpha, "beta": gap / math.factorial(n)}
    raise ValueError("pure exponential up to truncation")


def _operator(coeffs):
    """Series coefficients plus the facts the checker compares against."""
    coeffs = [Fraction(c) for c in coeffs]
    turan = 2 * coeffs[2] - coeffs[1] ** 2
    info = _classification(coeffs)
    info["turan_sign"] = (turan > 0) - (turan < 0)
    return coeffs, info


def _signed(rng, magnitudes):
    return Fraction(rng.choice(magnitudes)) * rng.choice((-1, 1))


def quadratic(rng, turan_sign, alpha=True, a_sizes=("1/2", "1")):
    """1 + a x + b x^2 with 2b - a^2 of the given sign (p = 2)."""
    a = _signed(rng, a_sizes) if alpha else Fraction(0)
    gap = Fraction(rng.choice(("1/2", "3/4", "1")))  # |Turan expression|
    b = (a * a + turan_sign * gap) / 2
    return _operator([1, a, b])


def cubic(rng, alpha=True):
    """1 + a x + a^2/2 x^2 + c x^3 with c != a^3/6: Turan 0, p = 3."""
    a = _signed(rng, ("1/2", "1")) if alpha else Fraction(0)
    c = a**3 / 6 + _signed(rng, ("1/3", "1/2", "2/3"))
    return _operator([1, a, a * a / 2, c])


def monic(rng, d):
    return [_rat(rng, 3, 3) for _ in range(d)] + [Fraction(1)]


def rational(rng, d):
    return [_rat(rng, 9, 6) for _ in range(d)] + [_rat(rng, 9, 6, nonzero=True)]


def limit_poly(beta, p, d):
    """exp(beta D^p) x^d = sum_k d! beta^k / (k! (d-pk)!) x^(d-pk)."""
    coeffs = [Fraction(0)] * (d + 1)
    for k in range(d // p + 1):
        coeffs[d - p * k] = Fraction(
            math.factorial(d), math.factorial(k) * math.factorial(d - p * k)
        ) * beta**k
    return coeffs


def parse_m_list(spec):
    out = []
    for chunk in spec.split(","):
        if ":" in chunk:
            start, stop = (int(x) for x in chunk.split(":"))
            out.extend(range(start, stop + 1))
        else:
            out.append(int(chunk))
    return sorted(set(out))


# ---------------------------------------------------------------------------
# slots.  Each method adds the jobs of one slot to the cycle; ``tiny``
# shrinks degrees and m-lists for the self-test.


class Cycle:
    def __init__(self, workload, seed, cycle, workdir, tiny=False):
        self.rng = random.Random(f"{workload}:{seed}:{cycle}")
        self.index = cycle
        self.dir = os.path.join(workdir, f"c{cycle}")
        os.makedirs(self.dir, exist_ok=True)
        self.tiny = tiny
        self.jobs = []

    def deg(self, d):
        return max(3, d // 4) if self.tiny else d

    def path(self, slot, ext):
        return os.path.join(self.dir, f"{slot}.{ext}")

    def series(self, slot, op, order):
        coeffs, info = op
        order = max(order, len(coeffs) - 1)
        path = _write(
            self.path(slot, "series"),
            SERIES_HEADER,
            coeffs + [Fraction(0)] * (order + 1 - len(coeffs)),
        )
        return path, info

    def poly(self, slot, coeffs):
        return _write(self.path(slot, "poly"), POLY_HEADER, coeffs)

    def add(self, slot, argv, after=None, **expect):
        self.jobs.append(Job(slot, [str(a) for a in argv], expect, after))

    # -- roots-float -------------------------------------------------------

    def attractor(self, slot, op, d, prec, m_list):
        d = self.deg(d)
        if self.tiny:
            m_list = "1:3"
        s, info = self.series(slot, op, d)
        f = self.poly(slot, monic(self.rng, d))
        self.add(
            slot,
            ["attractor", "--series", s, "--poly", f, "--m-list", m_list,
             "--epsilon", "0.5", "--precision-bits", prec],
            kind="attractor", degree=d, ms=parse_m_list(m_list), **info,
        )

    def limit_zeros(self, slot, d, prec):
        d = self.deg(d)
        p = 2 + self.index % 4
        f = self.poly(slot, limit_poly(Fraction(-1), p, d))
        self.add(
            slot, ["zeros", "--poly", f, "--precision-bits", prec],
            kind="zeros", degree=d, zero_root=d % p,
        )

    def jensen(self, slot, q, prec):
        q = self.deg(q)
        p = 2 + self.index % 5
        self.add(
            slot, ["jensen", "--p", p, "--q", q, "--roots", "--precision-bits", prec],
            kind="jensen", degree=q, p=p,
        )

    # -- onset-exact -------------------------------------------------------

    def onset(self, slot, op, d, m_max):
        d = self.deg(d)
        m_max = 2 if self.tiny else m_max
        s, info = self.series(slot, op, d)
        f = self.poly(slot, rational(self.rng, d))
        self.add(
            slot, ["onset", "--series", s, "--poly", f, "--m-max", m_max],
            kind="onset", degree=d, m_max=m_max, **info,
        )

    def lp_test(self, slot, op, d_max):
        d_max = self.deg(d_max)
        s, info = self.series(slot, op, d_max)
        self.add(
            slot, ["lp-test", "--series", s, "--d-max", d_max],
            kind="lp-test", d_max=d_max, **info,
        )

    def iterate(self, slot, op, d, m):
        d = self.deg(d)
        m = 2 if self.tiny else m
        s, info = self.series(slot, op, d)
        coeffs = rational(self.rng, d)
        f = self.poly(slot, coeffs)
        self.add(
            slot,
            ["iterate", "--series", s, "--poly", f, "--m", m, "--op-count", "nonreal"],
            kind="iterate", degree=d, m=m, lead=coeffs[-1], **info,
        )

    # -- converge-exact ----------------------------------------------------

    def converge(self, slot, op, d, m_list):
        d = self.deg(d)
        if self.tiny:
            m_list = "1:4"
        s, info = self.series(slot, op, d)
        f = self.poly(slot, monic(self.rng, d))
        self.add(
            slot, ["converge", "--series", s, "--poly", f, "--m-list", m_list],
            kind="converge", degree=d, ms=parse_m_list(m_list), **info,
        )

    def discrepancy(self, slot, op, d, m):
        d = self.deg(d)
        s, info = self.series(slot, op, d)
        self.add(
            slot, ["discrepancy", "--series", s, "--d", d, "--m", m],
            kind="discrepancy", d=d, m=m, **info,
        )

    # -- construct-disks ---------------------------------------------------

    def construct(self, slot, stages, partial_m=None):
        """construct with --plan-out, then verify-construct of that plan;
        with ``partial_m`` also a verification of iterates up to m only."""
        stages = 2 if self.tiny else stages
        # |a| = 1/2 only: a 3-stage construction then takes 2-2.5 s, where
        # |a| = 1 takes 3-3.5 s and would dominate the cycle's variance.
        op = quadratic(self.rng, +1, a_sizes=("1/2",))
        s, info = self.series(slot, op, CONSTRUCT_D_CAP)
        plan = self.path(slot, "plan.json")
        common = ["--series", s, "--d-cap", CONSTRUCT_D_CAP]
        self.add(
            slot,
            ["construct", *common, "--stages", stages, "--gamma0", GAMMA0, "--plan-out", plan],
            kind="construct", stages=stages, m=stages, **info,
        )
        self.add(
            slot + "-verify", ["verify-construct", *common, "--plan", plan],
            after=slot, kind="verify-construct", stages=stages, m=stages, **info,
        )
        if partial_m:
            self.add(
                f"{slot}-verify-m{partial_m}",
                ["verify-construct", *common, "--plan", plan, "--m", partial_m],
                after=slot, kind="verify-construct", stages=stages, m=partial_m, **info,
            )


def _roots_float(c):
    # Three slots cost under 0.8 s and three over 1.1 s, so the median job
    # is a limit-poly zeros job, whose p (and so cost) follows the cycle
    # number; job_p50_s then does not hinge on seeded attractor costs.
    rng = c.rng
    c.attractor("attr-d5-b512", quadratic(rng, -1), 5, 512, "1:6")
    c.attractor("attr-d8-b256", quadratic(rng, +1), 8, 256, "1,10,100")
    c.attractor("attr-d12-b128", quadratic(rng, -1), 12, 128, "1:4")
    c.attractor("attr-d16-b128", cubic(rng), 16, 128, "1,10")
    c.attractor("attr-d20-b128", quadratic(rng, +1), 20, 128, "10")
    c.limit_zeros("zeros-d20-b256", 20, 256)
    c.jensen("jensen-q12-b256", 12, 256)


def _construct_disks(c):
    c.construct("construct-n2a", 2)
    c.construct("construct-n2b", 2)
    c.construct("construct-n3", 3, partial_m=1)


def _onset_exact(c):
    rng = c.rng
    c.onset("onset-d16", quadratic(rng, -1), 16, 24)
    c.onset("onset-d24", quadratic(rng, +1), 24, 10)
    c.onset("onset-d32", cubic(rng), 32, 6)
    c.onset("onset-d48", quadratic(rng, +1), 48, 3)
    c.lp_test("lp-d40", quadratic(rng, +1), 40)
    c.lp_test("lp-d32", quadratic(rng, -1), 32)
    c.iterate("iter-d40", quadratic(rng, -1), 40, 6)
    c.iterate("iter-d20", quadratic(rng, +1), 20, 16)


def _converge_exact(c):
    rng = c.rng
    c.converge("conv-d12-p2", quadratic(rng, rng.choice((-1, 1))), 12, "1:60")
    c.converge("conv-d18-p2", quadratic(rng, +1), 18, "1:30")
    c.converge("conv-d24-p2", quadratic(rng, -1, alpha=False), 24, "1:40")
    c.converge("conv-d36-p3", cubic(rng), 36, "1,2,3,5,8,10,27,64")
    c.converge("conv-d48-p3", cubic(rng, alpha=False), 48, "1,2,5,8,12,27")
    c.discrepancy("disc-d30-p2", quadratic(rng, +1), 30, 49)
    c.discrepancy("disc-d30-p3", cubic(rng, alpha=False), 30, 20)


# roots-float and construct-disks are the floating route: find_roots
# carries the attractor, zeros and jensen jobs, and the construction,
# whose clustered roots are solved again and again.  exact-route never
# calls find_roots: the exact Sturm profile carries its onset-exact group
# of slots and the poly kernels its converge-exact group; the traced run
# names each group's largest layer.
WORKLOADS = {
    "roots-float": (_roots_float,),
    "construct-disks": (_construct_disks,),
    "exact-route": (_onset_exact, _converge_exact),
}


def cycle_jobs(workload, seed, cycle, workdir, tiny=False):
    """The jobs of one cycle, with their input files written under workdir."""
    c = Cycle(workload, seed, cycle, workdir, tiny)
    for part in WORKLOADS[workload]:
        first = len(c.jobs)
        part(c)
        for job in c.jobs[first:]:
            job.part = part.__name__.strip("_").replace("_", "-")
    return c.jobs
