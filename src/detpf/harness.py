"""Verification engine: runs identities symbolically or at random rational points.

Symbolic mode asserts exact equality of both sides over one variable table,
as polynomials or, where a relation divides, as quotients of them.  Numeric
mode compares exact values at guarded random rational points, seeded per
trial by a counter so that campaigns replay and parallelize deterministically.
"""

import hashlib
import json
import random
import time
from dataclasses import dataclass, field

from .identities import InvalidParamsError, UnknownIdentityError, get_spec, registry
from .identities import ZeroDenominatorError
from .poly import Polynomial, Quotient, VariableTable, random_rational


SYMBOLIC_DIM_CAP = 8
# a failing side whose polynomial or numerator has more terms is recorded by its term count
TEXT_TERM_CAP = 1000


class GuardExhaustionError(RuntimeError):
    """Too many consecutive random draws landed on the singular locus."""


class ConfigError(ValueError):
    """A campaign config file could not be parsed."""


def resolve_params(spec, overrides=None):
    """Merge user params over the spec defaults, rejecting unknown keys."""
    params = dict(spec.defaults)
    for key, value in (overrides or {}).items():
        if key not in params:
            raise InvalidParamsError(f"unknown parameter {key!r} for {spec.name}")
        params[key] = value
    spec.check(params)
    return params


def symbolic_cases(spec):
    return spec.symbolic_cases if spec.symbolic_cases else (spec.defaults,)


@dataclass
class VerificationReport:
    identity: str
    params: dict
    mode: str
    trials: int
    seed: int
    bound: int
    failures: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self):
        return not self.failures

    def to_json_obj(self):
        # elapsed intentionally omitted: replayed campaigns must be byte-identical
        return {
            "identity": self.identity,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "mode": self.mode,
            "trials": self.trials,
            "seed": self.seed,
            "bound": self.bound,
            "passed": self.passed,
            "failures": self.failures,
        }


def _scalar_text(value):
    if isinstance(value, Quotient):
        terms, factors = len(value.num.terms), value.factors()
        if terms > TEXT_TERM_CAP:
            return f"<quotient, {terms} terms over {sum(m for _, m in factors)} factors>"
        return " / ".join([f"({value.num.text()})"] + [f"({f.text()})^{m}" for f, m in factors])
    if isinstance(value, Polynomial):
        if len(value.terms) > TEXT_TERM_CAP:
            return f"<polynomial, {len(value.terms)} terms>"
        return value.text()
    return str(value)


def _build_symbolic_scalars(vspec):
    table = VariableTable()
    for prefix, count in vspec:
        table.add_vector(prefix, count)
    gens = table.gens()
    sc = {}
    offset = 0
    for prefix, count in vspec:
        sc[prefix] = gens[offset : offset + count]
        offset += count
    return table, sc


def _failures(pairs, trial, assignment):
    """The failure records of the (lhs, rhs) pairs that differ."""
    return [
        {
            "trial": trial,
            "pair": pair_index,
            "assignment": assignment,
            "lhs": _scalar_text(lhs),
            "rhs": _scalar_text(rhs),
        }
        for pair_index, (lhs, rhs) in enumerate(pairs)
        if not lhs == rhs
    ]


def _trial_rng(seed, name, params, trial):
    key = "|".join(
        [
            str(seed),
            name,
            ",".join(f"{k}={params[k]}" for k in sorted(params)),
            str(trial),
        ]
    )
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _run_numeric_trial(spec, name, params, seed, bound, trial, reject_limit):
    """One guarded random evaluation; returns the failure records for this trial."""
    rng = _trial_rng(seed, name, params, trial)
    vspec = spec.vectors(params)
    rejects = 0
    while True:
        sc = {prefix: [random_rational(rng, bound) for _ in range(size)] for prefix, size in vspec}
        if all(g != 0 for g in spec.guard_values(params, sc)):
            try:
                pairs = spec.sides(params, sc, True)
                break
            except ZeroDenominatorError:  # a denominator of the sides vanishes: redraw
                pass
        rejects += 1
        if rejects >= reject_limit:
            raise GuardExhaustionError(
                f"{name}: {rejects} consecutive draws hit a guard (trial {trial})"
            )
    assignment = {f"{prefix}{i + 1}": str(v) for prefix, vs in sc.items() for i, v in enumerate(vs)}
    return _failures(pairs, trial, assignment)


def _check_run(mode, trials, bound):
    if mode not in ("symbolic", "numeric"):
        raise InvalidParamsError(f"unknown mode {mode!r}")
    if mode == "numeric" and trials < 1:
        raise InvalidParamsError("numeric mode requires trials >= 1")
    if mode == "numeric" and bound < 1:
        raise InvalidParamsError("numeric mode requires bound >= 1")


def verify(name, params=None, mode="symbolic", trials=20, seed=0, bound=25):
    """Run one identity in one mode and return its VerificationReport."""
    spec = get_spec(name)
    params = resolve_params(spec, params)
    _check_run(mode, trials, bound)
    if mode == "symbolic" and spec.main_dim(params) > SYMBOLIC_DIM_CAP:
        raise InvalidParamsError(
            f"{name} at {params} exceeds the symbolic size cap "
            f"(matrix dimension {spec.main_dim(params)} > {SYMBOLIC_DIM_CAP}); use numeric mode"
        )
    start = time.perf_counter()
    if mode == "symbolic":
        vspec = spec.vectors(params)
        _, sc = _build_symbolic_scalars(vspec)
        failures = _failures(spec.sides(params, sc, False), 0, {})
        trials_run = 1
    else:
        reject_limit = 100 * trials
        failures = []
        for trial in range(trials):
            failures.extend(
                _run_numeric_trial(spec, name, params, seed, bound, trial, reject_limit)
            )
        trials_run = trials
    elapsed = time.perf_counter() - start
    return VerificationReport(
        identity=name,
        params=params,
        mode=mode,
        trials=trials_run,
        seed=seed,
        bound=bound,
        failures=failures,
        elapsed=elapsed,
    )


# ---------------------------------------------------------------------------
# campaigns


@dataclass
class CampaignBlock:
    name: str
    mode: str
    trials: int
    bound: int
    seed: int
    params: dict = field(default_factory=dict)


@dataclass
class CampaignConfig:
    blocks: list = field(default_factory=list)


_GLOBAL_KEYS = ("seed", "bound", "trials", "mode")


def parse_campaign_config(text):
    """Parse the key-value config format with repeated [identity] blocks.

    A key may appear once among the globals and once per block; a repeat
    is a ConfigError naming its line.
    """
    sections = [{}]  # the globals, then one key map per [identity] block
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[identity]":
            sections.append({})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        section = sections[-1]
        if key in section:
            raise ConfigError(f"line {lineno}: repeated key {key!r}")
        if len(sections) == 1 and key not in _GLOBAL_KEYS:
            raise ConfigError(f"line {lineno}: unknown global key {key!r}")
        try:
            section[key] = value if key in ("name", "mode") else int(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    defaults = {"seed": 0, "bound": 25, "trials": 20, "mode": "numeric", **sections[0]}
    blocks = []
    for b in sections[1:]:
        if "name" not in b:
            raise ConfigError("an [identity] block is missing its name")
        blocks.append(
            CampaignBlock(
                name=b.pop("name"),
                mode=b.pop("mode", defaults["mode"]),
                trials=b.pop("trials", defaults["trials"]),
                bound=b.pop("bound", defaults["bound"]),
                seed=b.pop("seed", defaults["seed"]),
                params=b,
            )
        )
    return CampaignConfig(blocks)


def default_campaign_config(seed=2024, bound=30, trials=20):
    """The desk-scale grid: every identity symbolically at its minimal cases,
    then numerically at its larger parameter set."""
    blocks = []
    for name in registry():
        spec = get_spec(name)
        for case in symbolic_cases(spec):
            blocks.append(CampaignBlock(name, "symbolic", 1, bound, seed, dict(case)))
        blocks.append(
            CampaignBlock(name, "numeric", trials, bound, seed, dict(spec.numeric_defaults))
        )
    return CampaignConfig(blocks)


def _run_block(b):
    """One campaign block as a VerificationReport; its trials run in order."""
    return verify(b.name, b.params, b.mode, b.trials, b.seed, b.bound)


def run_campaign(config, workers=1):
    """Run all blocks; reports come back in block order regardless of workers.

    With a pool, each block is one task: a numeric block runs its trials in
    order inside that task, so its failures are those of the serial run and
    its elapsed time is the time its trials took.  Every block is checked
    before any task starts, and the pool has no more processes than blocks.
    """
    workers = min(workers, len(config.blocks))
    if workers <= 1:
        return [_run_block(b) for b in config.blocks]
    for b in config.blocks:
        resolve_params(get_spec(b.name), b.params)
        _check_run(b.mode, b.trials, b.bound)
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_block, config.blocks))


def reports_to_json(reports):
    """Stable-order JSON array; byte-identical across replays with the same seed."""
    return json.dumps([r.to_json_obj() for r in reports], indent=2) + "\n"
