"""Named experiment suites with deterministic reports.

Each suite samples seeded instances, runs the relevant constructions,
records exact rational rows, and flags every assertion it checked.  A
report is a pure function of (config, seed): rows are emitted in a fixed
order and fractions are rendered exactly, so reruns are byte-identical.
"""

from __future__ import annotations

import random
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_string
from math import inf
from typing import Callable, Optional

from . import sampling
from ._records import record
from .dynamics import MarkerSequence, Odometer
from .involution_cocycles import (
    InvolutionCocycle,
    OracleInconsistencyError,
    _recovered_kernel,
    h_approximate,
    verify_identities,
)
from .space import BernoulliMeasure, _law_sums, _tau_sums, binary_bases
from .values import NeighborhoodChain, _is_int, _positive_radius, as_fraction, group_from_tag
from .zcocycles import ZCocycle, _horizon, coboundary_solve, density_table, gh_check


class UsageError(ValueError):
    """Configuration or invocation errors (exit code 2)."""


def _usage(check, *args):
    """``check(*args)``, its ValueError raised as a UsageError."""
    try:
        return check(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


@record
class ExperimentConfig:
    """Model, value group, seed, and tuning knobs for one experiment."""

    bases: tuple[int, ...] = (2, 2, 2, 2, 2)
    group: str = "rat"
    seed: int = 0
    eps0: Fraction = Fraction(1, 4)
    horizon: Optional[int] = None
    count: Optional[int] = None
    n_max: Optional[int] = None
    epsilon_max: Fraction = Fraction(1)

    def __post_init__(self):
        if not isinstance(self.bases, (list, tuple)):
            raise UsageError(f"bases must be a list of integers, got {self.bases!r}")
        object.__setattr__(self, "bases", tuple(self.bases))
        for k, b in enumerate(self.bases):
            if not _is_int(b):
                raise UsageError(f"bases entry {k} must be an integer, got {b!r}")
        if len(self.bases) < 1:
            raise UsageError("depth must be >= 1")
        given = self.eps0, self.epsilon_max
        for name, value in zip(("eps0", "epsilon_max"), given):
            try:
                object.__setattr__(self, name, as_fraction(value))
            except (TypeError, ValueError) as exc:  # a config holds two radii: name the one refused
                raise type(exc)(f"{name}: {exc}") from None
        for name in ("eps0", "epsilon_max"):
            _usage(_positive_radius, name, getattr(self, name))
        for name, value in zip(("eps0", "epsilon_max"), given):
            try:  # the report prints each radius, and the cells it bounds, as floats too
                float(getattr(self, name))
            except OverflowError:
                raise UsageError(f"{name} must lie within the float range, got {value!r}") from None
        if not isinstance(self.group, str):
            raise UsageError(f"group must be a string, got {self.group!r}")
        group_from_tag(self.group)  # validate
        if not _is_int(self.seed):
            raise UsageError(f"seed must be an integer, got {self.seed!r}")
        _usage(_horizon, self.horizon, 0)  # the size only stands in for a None horizon
        for name in ("count", "n_max"):
            value = getattr(self, name)
            if value is not None and not (_is_int(value) and value >= 1):
                raise UsageError(f"{name} must be an integer >= 1, got {value!r}")

    @classmethod
    def from_json(cls, obj: dict, source: str = "bad config") -> "ExperimentConfig":
        """A config from its JSON keys: the field names, or ``depth`` for
        the 2-odometer of that depth in place of ``bases``.  A null value
        keeps the default, except for ``bases`` and ``depth``.  A refusal
        reads ``<source>: <message>``."""
        kwargs = {k: v for k, v in obj.items() if v is not None or k == "bases"}
        try:
            for key in obj:
                if key not in CONFIG_FIELDS and key != "depth":
                    raise UsageError(
                        f"unknown key {key!r}; known: depth, {', '.join(CONFIG_FIELDS)}"
                    )
            if "bases" in obj and "depth" in obj:
                raise UsageError("give either bases or depth, not both")
            if "depth" in obj:
                depth = kwargs.pop("depth", None)
                if not (_is_int(depth) and depth >= 1):
                    raise UsageError(f"depth must be an integer >= 1, got {depth!r}")
                kwargs["bases"] = binary_bases(depth)
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"{source}: {exc}") from exc

    def model(self) -> Odometer:
        return Odometer(self.bases)

    def value_group(self):
        return group_from_tag(self.group)

    def rng(self) -> random.Random:
        return random.Random(self.seed)


CONFIG_FIELDS = ExperimentConfig._fields


def _json_scalar(o) -> str:
    """JSON text of a str, None, bool, int or float, as ``json.dumps`` writes it."""
    if isinstance(o, str):
        return _json_string(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == inf:
            return "Infinity"
        if o == -inf:
            return "-Infinity"
        return float.__repr__(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _write_json(o, put, nl: str) -> None:
    """Append the text of ``o`` at indentation ``nl`` (a newline and the
    indent) through ``put``.  A dict of int and str values (a value
    record) is joined in one step, and a list that repeats a record object
    from one text per object, keyed by ``id`` (the list holds each object
    until it is joined).  Module level, not a closure over ``put``: a
    closure that calls itself is a reference cycle, which would keep every
    part alive until the cyclic collector runs."""
    if isinstance(o, (list, tuple)):
        if not o:
            put("[]")
            return
        inner = nl + "  "
        if type(o[0]) is dict:  # a table of shared records is joined from one text per object
            distinct = dict(zip(map(id, o), o))
            if len(distinct) < len(o):
                texts = {}  # a loop: a comprehension would make an inner cell, slowing every call
                for key, v in distinct.items():
                    parts = []
                    _write_json(v, parts.append, inner)
                    texts[key] = "".join(parts)
                put("[" + inner + ("," + inner).join(map(texts.__getitem__, map(id, o))) + nl + "]")
                return
        put("[")
        sep, comma = inner, "," + inner
        for v in o:
            put(sep)
            sep = comma
            _write_json(v, put, inner)
        put(nl + "]")
    elif isinstance(o, dict):
        if not o:
            put("{}")
            return
        inner = nl + "  "
        for v in o.values():
            if type(v) is not int and type(v) is not str:
                break
        else:  # int and str values only: a value record
            put("{" + inner + ("," + inner).join(
                [_json_string(k) + ": " + _json_scalar(v) for k, v in o.items()]
            ) + nl + "}")
            return
        put("{")
        sep, comma = inner, "," + inner
        for k, v in o.items():
            put(sep + _json_string(k) + ": ")
            sep = comma
            _write_json(v, put, inner)
        put(nl + "}")
    else:
        put(_json_scalar(o))


def render_json(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, without CPython's
    pure-Python encoder (which ``indent`` selects): the text of every
    report and command output.  Dict keys must be str (a TypeError
    otherwise), as they are in every output.  A table that repeats a
    record object (as ``payloads_to_json`` shares them) is joined from one
    text per object, so ``obj`` must not change while it renders."""
    parts = []
    _write_json(obj, parts.append, "\n")
    return "".join(parts)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, Fraction)):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


@record
class Report:
    """Deterministic experiment output: header, rows, and pass/fail checks."""

    suite: str
    header: dict
    columns: tuple[str, ...]
    rows: list
    checks: list

    @property
    def experiment_id(self) -> str:
        return f"{self.suite}-seed{self.header.get('seed')}-depth{self.header.get('depth')}"

    def add_row(self, **values) -> None:
        self.rows.append({k: values.get(k) for k in self.columns})

    def check(self, name: str, passed: bool, witness: str = "") -> bool:
        self.checks.append({"name": name, "passed": bool(passed), "witness": witness})
        return passed

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c["passed"]]

    @staticmethod
    def _json_cell(value):
        if isinstance(value, Fraction):
            return {"fraction": str(value), "decimal": float(value)}
        return value

    def to_json(self) -> str:
        payload = {
            "experiment": self.experiment_id,
            "suite": self.suite,
            "header": {k: _fmt(v) for k, v in self.header.items()},
            "columns": list(self.columns),
            "rows": [
                {k: self._json_cell(v) for k, v in row.items()} for row in self.rows
            ],
            "checks": self.checks,
            "passed": self.passed,
        }
        return render_json(payload) + "\n"

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_fmt(row[k]) for k in self.columns))
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise UsageError(f"unknown format {fmt!r}")


def _report(config: ExperimentConfig, suite: str, columns: tuple[str, ...]) -> Report:
    """A suite's report, with no rows or checks yet."""
    header = {
        "suite": suite,
        "seed": config.seed,
        "depth": len(config.bases),
        "bases": ",".join(str(b) for b in config.bases),
        "group": config.group,
    }
    return Report(suite, header, columns, [], [])


def density_suite(config: ExperimentConfig) -> Report:
    """Coboundary approximants F_n with certified tau3 rate 2^-n."""
    model = config.model()
    if any(b != 2 for b in config.bases):
        raise UsageError("the density rate 2^-n is stated for the 2-odometer")
    rng = config.rng()
    group = config.value_group()
    markers = MarkerSequence(model)
    n_max = config.n_max or model.depth - 1
    if model.depth < 2:
        raise UsageError(f"the density rows need depth >= 2, got depth {model.depth}")
    if not 1 <= n_max <= model.depth - 1:
        raise UsageError(f"n_max must lie in 1..{model.depth - 1}")
    fair = BernoulliMeasure.uniform(config.bases)
    count = config.count or 5
    report = _report(config, "density", ("generator", "n", "tau3", "bound", "certified"))
    for g_idx in range(count):
        f = sampling.cylinder_function(rng, config.bases, group)
        rows = density_table(ZCocycle(model, f), markers, n_max, [fair])
        for row in rows:
            n = row["n"]
            bound = Fraction(1, 1 << n)
            report.add_row(
                generator=g_idx,
                n=n,
                tau3=row["tau3_0"],
                bound=bound,
                certified=row["certified"],
            )
            report.check(
                f"gen{g_idx}-n{n}-rate",
                row["tau3_0"] <= bound,
                witness=f"tau3={row['tau3_0']}",
            )
            report.check(f"gen{g_idx}-n{n}-certificate", row["certified"])
    return report


def topology_suite(config: ExperimentConfig) -> Report:
    """Quantitative inclusion constants between the tau functionals."""
    rng = config.rng()
    group = config.value_group()
    count = config.count or 100
    report = _report(config, "topology", ("case", "eps", "delta", "tau3", "tau4", "exceedance"))
    report.header["epsilon_max"] = config.epsilon_max
    antecedents = 0
    bounds = {}  # (eps, delta) draws -> eps, delta, eps*delta, eps*delta/(1+eps)
    for case in range(count):
        law = sampling._perturbation_law(rng, config.bases, group)
        if law is None:
            f, g = sampling.perturbed_pair(rng, config.bases, group)
            mu = sampling.bernoulli_measure(rng, config.bases)
        draws = rng.randint(1, 8), rng.randint(1, 8)
        if draws not in bounds:
            eps = Fraction(draws[0], 8) * config.epsilon_max
            delta = Fraction(draws[1], 8)
            bounds[draws] = eps, delta, eps * delta, eps * delta / (1 + eps)
        eps, delta, tau3_bound, tau4_bound = bounds[draws]
        t3, t4, exceed = _tau_sums(f, g, eps, mu) if law is None else _law_sums(*law, eps)
        report.add_row(case=case, eps=eps, delta=delta, tau3=t3, tau4=t4, exceedance=exceed)
        if t3 < tau3_bound:
            antecedents += 1
            report.check(
                f"case{case}-tau3-constant",
                exceed < delta,
                witness=f"tau3={t3} eps={eps} delta={delta} mu(exceed)={exceed}",
            )
        if t4 < tau4_bound:
            report.check(
                f"case{case}-tau4-constant",
                exceed < delta,
                witness=f"tau4={t4} eps={eps} delta={delta} mu(exceed)={exceed}",
            )
    report.header["antecedents"] = antecedents
    return report


def _round_trip(cocycle: InvolutionCocycle) -> tuple[bool, str]:
    """Whether the family recovered from ``cocycle`` is its own, and the
    text of the recovery's failure ("" when the recovery ran).  The
    recovered tables are compared in kernel form, numerators over the
    family's own denominator, with the family's."""
    family = cocycle.family
    try:
        recovered, _, _ = _recovered_kernel(cocycle, family.count, family.bases, family.group)
    except OracleInconsistencyError as exc:
        return False, str(exc)
    return recovered == cocycle._kernel_family[0], ""


def odometer_suite(config: ExperimentConfig) -> Report:
    """Generator-family identities and the exact recovery round trip."""
    rng = config.rng()
    group = config.value_group()
    depth = len(config.bases)
    if any(b != 2 for b in config.bases):
        raise UsageError("involution cocycles need the 2-odometer")
    count = config.count or 20
    report = _report(config, "odometer", ("family", "generators", "identities", "roundtrip"))
    for idx in range(count):
        n_gen = rng.randint(1, min(5, depth))
        family = sampling.invariant_family(rng, depth, n_gen, group)
        cocycle = InvolutionCocycle(family)
        check = verify_identities(cocycle)
        roundtrip, witness = _round_trip(cocycle)
        report.add_row(
            family=idx, generators=n_gen, identities=check.ok, roundtrip=roundtrip
        )
        report.check(f"family{idx}-identities", check.ok, witness=str(check.witness))
        report.check(f"family{idx}-roundtrip", roundtrip, witness=witness)
    return report


def _dyadic_family(family) -> bool:
    """Whether a rational family, and so its cocycle on every flip word, is
    dyadic: the cocycle's values are integer combinations of the family's,
    and on x_1 = ... = x_n = 0 its value at delta_n is f_n itself.  Only
    the distinct denominators are tested: a rounded family has few."""
    return all(d & (d - 1) == 0 for d in {v.denominator for t in family.tables for v in t})


def happrox_suite(config: ExperimentConfig) -> Report:
    """Dyadic-valued cohomologous cocycles with bounded transfer."""
    rng = config.rng()
    depth = len(config.bases)
    if any(b != 2 for b in config.bases):
        raise UsageError("involution cocycles need the 2-odometer")
    if config.group != "rat":
        raise UsageError("the dyadic approximation suite needs the rational group")
    chain = NeighborhoodChain(config.eps0)
    count = config.count or 20
    report = _report(config, "happrox", ("family", "generators", "max_transfer", "bound", "dyadic"))
    report.header["eps0"] = config.eps0
    for idx in range(count):
        n_gen = rng.randint(1, min(4, depth))
        family = sampling.invariant_family(rng, depth, n_gen, group_from_tag("rat"))
        result = h_approximate(family, chain)
        dyadic_ok = _dyadic_family(result.rounded_family)
        max_g = result.max_transfer
        report.add_row(
            family=idx,
            generators=n_gen,
            max_transfer=max_g,
            bound=result.radius_bound,
            dyadic=dyadic_ok,
        )
        report.check(f"family{idx}-dyadic", dyadic_ok)
        report.check(
            f"family{idx}-transfer-bound",
            max_g <= config.eps0,
            witness=f"max|g|={max_g}",
        )
    return report


def gh_suite(config: ExperimentConfig) -> Report:
    """Cross-oracle agreement of the bounded-sums test with the exact solver."""
    rng = config.rng()
    model = config.model()
    count = config.count or 50
    report = _report(config, "gh", ("case", "coboundary", "cycle_sum", "empirical_sup", "bound"))
    for case in range(count):
        f = sampling.small_integer_function(rng, config.bases, -2, 2)
        a = ZCocycle(model, f)
        certificate = coboundary_solve(a)
        result = gh_check(a, horizon=config.horizon)
        agree = result.decision == (certificate is not None)
        report.add_row(
            case=case,
            coboundary=result.decision,
            cycle_sum=a.cycle_sum.payload,
            empirical_sup=result.empirical_sup,
            bound=certificate.spread_bound if certificate else "",
        )
        report.check(f"case{case}-agreement", agree)
        if certificate is not None:
            report.check(
                f"case{case}-sup-bound",
                result.empirical_sup <= certificate.spread_bound,
                witness=f"sup={result.empirical_sup} M={certificate.spread_bound}",
            )
        else:
            report.check(f"case{case}-witness", result.witness is not None)
    return report


SUITES: dict[str, Callable[[ExperimentConfig], Report]] = {
    "density": density_suite,
    "topology": topology_suite,
    "odometer": odometer_suite,
    "happrox": happrox_suite,
    "gh": gh_suite,
}


def run(config: ExperimentConfig, suite: str) -> Report:
    """Run a named suite; unknown names are usage errors."""
    if suite not in SUITES:
        raise UsageError(
            f"unknown suite {suite!r}; available: {', '.join(sorted(SUITES))}"
        )
    return SUITES[suite](config)
