"""Seeded random instance generation.

The same GenConfig always yields the same instance, byte for byte, so
sweep tests can reference instances by seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .instance import (Application, College, Instance, InstanceError, QuotaSet,
                       assemble)


class ConfigError(InstanceError):
    """Unsatisfiable or malformed generator configuration."""


@dataclass(frozen=True)
class GenConfig:
    n: int                                  # applicants
    m: int                                  # colleges
    seed: int
    list_range: tuple[int, int] = (1, 3)    # applications per applicant
    max_score: int = 10
    tie_density: float = 0.0                # 0 gives pairwise distinct scores per college
    upper_range: tuple[int, int] = (1, 3)
    lower_range: tuple[int, int] = (0, 0)   # clamped to each college's upper quota
    topology: str = "none"                  # none | nested | random
    set_count: int = 2                      # quota sets to attempt when topology != none
    pair_prob: float = 0.0                  # chance an application is paired


def _check(cfg: GenConfig) -> None:
    if cfg.n < 0 or cfg.m < 0:
        raise ConfigError("n and m must be >= 0")
    if cfg.max_score < 0:
        raise ConfigError("max_score must be >= 0")
    for name, rng in (("list_range", cfg.list_range), ("upper_range", cfg.upper_range),
                      ("lower_range", cfg.lower_range)):
        if rng[0] > rng[1] or rng[0] < 0:
            raise ConfigError(f"{name} must be a non-negative (lo, hi) with lo <= hi")
    if cfg.upper_range[0] < 1 and cfg.m > 0:
        raise ConfigError("upper_range must start at 1 or more")
    if not 0.0 <= cfg.tie_density <= 1.0:
        raise ConfigError("tie_density must lie in [0, 1]")
    if not 0.0 <= cfg.pair_prob <= 1.0:
        raise ConfigError("pair_prob must lie in [0, 1]")
    if cfg.topology not in ("none", "nested", "random"):
        raise ConfigError(f"unknown topology {cfg.topology!r}")
    if cfg.topology != "none" and cfg.m < 2:
        raise ConfigError(f"topology {cfg.topology!r} needs at least 2 colleges")
    if cfg.topology != "none" and cfg.set_count < 1:
        raise ConfigError("set_count must be >= 1 when quota sets are requested")
    if cfg.tie_density == 0.0 and cfg.n > cfg.max_score + 1:
        raise ConfigError(
            "tie-free scores need max_score + 1 >= n distinct values per college")
    if cfg.pair_prob > 0.0 and cfg.m < 2:
        raise ConfigError("paired applications need at least 2 colleges")


def _laminar_sets(rng: random.Random, m: int, count: int) -> list[tuple[int, ...]]:
    """Random index intervals kept only when they nest with those chosen so far."""
    chosen: list[tuple[int, ...]] = []
    for _ in range(count):
        for _attempt in range(50):
            a, b = rng.randrange(m), rng.randrange(m)
            lo, hi = min(a, b), max(a, b)
            members = tuple(range(lo, hi + 1))
            if len(members) < 2 or members in chosen:
                continue
            s = set(members)
            if all(not (s & set(t)) or s <= set(t) or s >= set(t) for t in chosen):
                chosen.append(members)
                break
    return chosen


def _random_sets(rng: random.Random, m: int, count: int) -> list[tuple[int, ...]]:
    chosen: list[tuple[int, ...]] = []
    for _ in range(count):
        for _attempt in range(50):
            size = rng.randint(2, m)
            members = tuple(sorted(rng.sample(range(m), size)))
            if members not in chosen:
                chosen.append(members)
                break
    return chosen


def _score_classes(m: int, sets: list[tuple[int, ...]]) -> list[int]:
    """College -> class id; colleges sharing a quota set share one score class."""
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for members in sets:
        root = find(members[0])
        for j in members[1:]:
            parent[find(j)] = root
    return [find(j) for j in range(m)]


def generate(cfg: GenConfig) -> Instance:
    """Generate a valid instance; fully determined by cfg (incl. seed)."""
    _check(cfg)
    rng = random.Random(cfg.seed)

    colleges = []
    for j in range(cfg.m):
        upper = rng.randint(*cfg.upper_range)
        lower = min(upper, rng.randint(*cfg.lower_range))
        colleges.append(College(id=f"c{j + 1}", upper=upper, lower=lower))

    if cfg.topology == "nested":
        raw_sets = _laminar_sets(rng, cfg.m, cfg.set_count)
    elif cfg.topology == "random":
        raw_sets = _random_sets(rng, cfg.m, cfg.set_count)
    else:
        raw_sets = []
    quota_sets = []
    for p, members in enumerate(raw_sets):
        cap = sum(colleges[j].upper for j in members)
        quota_sets.append(QuotaSet(id=f"p{p + 1}", members=members,
                                   upper=rng.randint(1, cap)))

    classes = _score_classes(cfg.m, raw_sets)
    class_scores: dict[int, list[int]] = {}  # class -> scores by applicant
    for cls in sorted(set(classes)):
        if cfg.tie_density == 0.0:
            class_scores[cls] = rng.sample(range(cfg.max_score + 1), cfg.n)
        else:
            pool: list[int] = []
            for i in range(cfg.n):
                if pool and rng.random() < cfg.tie_density:
                    s = rng.choice(pool)
                else:
                    s = rng.randint(0, cfg.max_score)
                pool.append(s)
            class_scores[cls] = pool
    scores = [class_scores[cls] for cls in classes]  # college -> scores by applicant

    by_applicant = []  # entries are drawn applicant by applicant in rank order
    applicants = tuple(f"a{i + 1}" for i in range(cfg.n))
    all_colleges = list(range(cfg.m))
    for i in range(cfg.n):
        length = min(rng.randint(*cfg.list_range), cfg.m)
        remaining = all_colleges.copy()  # sorted, less the simple targets drawn
        used_pairs: set[frozenset[int]] = set()
        own: list[Application] = []
        for rank in range(1, length + 1):
            entry = None
            if cfg.m >= 2 and rng.random() < cfg.pair_prob:
                for _attempt in range(10):
                    j, k = rng.sample(range(cfg.m), 2)
                    if frozenset((j, k)) not in used_pairs:
                        used_pairs.add(frozenset((j, k)))
                        entry = Application(i, rank, (j, k),
                                            (scores[j][i], scores[k][i]))
                        break
            if entry is None:
                # length <= m, so a college is always left to draw
                j = rng.choice(remaining)
                remaining.remove(j)
                entry = Application(i, rank, j, scores[j][i])
            own.append(entry)
        by_applicant.append(tuple(own))

    return assemble(cfg.max_score, applicants, colleges, by_applicant, quota_sets)
