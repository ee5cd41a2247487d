"""Seeded synthetic KDD-format inputs for the benchmark.

Two generators, both pure functions of a seed (the same seed gives
byte-identical text):

* ``training_corpus`` writes the ``hard`` profile: labeled 42-field lines
  whose class templates overlap, a small share of noisy labels, a large
  share of exact duplicate lines, and a class skew that reaches every
  coarse class including ``u2r``. Overlap and noise make the forest grow
  deep trees; duplicates exercise ``deduplicate``.
* ``stream_traffic`` writes unlabeled 41-field live-traffic lines, mostly
  ``normal``, with a fixed number of malformed lines the parser must
  reject.

This module imports nothing from the package under test, so a change to
the program cannot change the inputs it is measured on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_FIELDS = 41
PROTOCOL = 1
SRC_BYTES = 4

# Coarse class of each fine label (the package's default taxonomy).
COARSE_OF = {
    "normal": "normal",
    "back": "dos", "neptune": "dos", "smurf": "dos", "teardrop": "dos",
    "ipsweep": "probe", "portsweep": "probe", "satan": "probe",
    "guess_passwd": "r2l", "warezclient": "r2l",
    "buffer_overflow": "u2r", "rootkit": "u2r",
}

# A numeric column spec is one of
#   ("i", lo, hi)         integer, uniform in [lo, hi]
#   ("z", p, lo, hi)      integer, 0 with probability p, else uniform
#   ("l", mu, sigma)      integer, round(exp(N(mu, sigma)))
#   ("r", lo, hi)         rate in [lo, hi], two decimals
#   ("c", value)          constant string
# Columns a template leaves out are "0".
_Spec = tuple


@dataclass(frozen=True)
class Template:
    protocols: tuple[str, ...]
    services: tuple[str, ...]
    flags: tuple[str, ...]
    columns: dict[int, _Spec]


TEMPLATES = {
    "normal": Template(
        ("tcp", "tcp", "tcp", "udp", "icmp"), ("http", "smtp", "domain_u", "ftp_data", "ecr_i"),
        ("SF", "SF", "SF", "REJ", "S0"),
        {0: ("z", 0.85, 1, 3000), 4: ("l", 5.5, 1.6), 5: ("l", 7.0, 2.0),
         9: ("z", 0.9, 1, 3), 11: ("z", 0.2, 1, 1), 22: ("i", 1, 80),
         23: ("i", 1, 80), 24: ("r", 0.0, 0.15), 26: ("r", 0.0, 0.2),
         28: ("r", 0.6, 1.0), 29: ("r", 0.0, 0.2), 30: ("r", 0.0, 0.4),
         31: ("i", 1, 255), 32: ("i", 1, 255), 33: ("r", 0.2, 1.0),
         34: ("r", 0.0, 0.3), 35: ("r", 0.0, 0.6), 36: ("r", 0.0, 0.3),
         37: ("r", 0.0, 0.1), 39: ("r", 0.0, 0.2)},
    ),
    "back": Template(
        ("tcp",), ("http",), ("SF", "RSTR"),
        {0: ("z", 0.9, 1, 10), 4: ("i", 20000, 60000), 5: ("l", 8.0, 1.0),
         9: ("i", 1, 3), 11: ("c", "1"), 12: ("i", 0, 1), 22: ("i", 1, 40),
         23: ("i", 1, 40), 28: ("r", 0.8, 1.0), 31: ("i", 1, 255),
         32: ("i", 1, 255), 33: ("r", 0.5, 1.0), 35: ("r", 0.0, 0.3)},
    ),
    "neptune": Template(
        ("tcp",), ("private", "other", "http", "telnet"), ("S0", "S0", "REJ"),
        {22: ("i", 20, 511), 23: ("i", 1, 40), 24: ("r", 0.5, 1.0),
         25: ("r", 0.5, 1.0), 26: ("r", 0.0, 0.5), 27: ("r", 0.0, 0.5),
         28: ("r", 0.0, 0.4), 29: ("r", 0.0, 0.2), 31: ("i", 100, 255),
         32: ("i", 1, 40), 33: ("r", 0.0, 0.3), 34: ("r", 0.0, 0.2),
         37: ("r", 0.5, 1.0), 38: ("r", 0.5, 1.0), 39: ("r", 0.0, 0.5),
         40: ("r", 0.0, 0.5)},
    ),
    "smurf": Template(
        ("icmp",), ("ecr_i",), ("SF",),
        {4: ("i", 500, 1100), 22: ("i", 60, 511), 23: ("i", 60, 511),
         28: ("r", 0.8, 1.0), 31: ("i", 150, 255), 32: ("i", 150, 255),
         33: ("r", 0.8, 1.0), 35: ("r", 0.3, 1.0)},
    ),
    "teardrop": Template(
        ("udp",), ("private",), ("SF",),
        {4: ("i", 20, 40), 7: ("c", "3"), 22: ("i", 1, 120), 23: ("i", 1, 120),
         28: ("r", 0.5, 1.0), 31: ("i", 1, 255), 32: ("i", 1, 120),
         33: ("r", 0.2, 1.0), 35: ("r", 0.0, 0.6)},
    ),
    "ipsweep": Template(
        ("icmp", "icmp", "tcp"), ("eco_i", "ecr_i", "private"), ("SF",),
        {4: ("i", 8, 40), 22: ("i", 1, 20), 23: ("i", 1, 20),
         28: ("r", 0.5, 1.0), 30: ("r", 0.3, 1.0), 31: ("i", 1, 120),
         32: ("i", 1, 120), 33: ("r", 0.2, 1.0), 34: ("r", 0.0, 0.6),
         35: ("r", 0.4, 1.0), 36: ("r", 0.2, 0.8)},
    ),
    "portsweep": Template(
        ("tcp",), ("private", "other", "ftp_data"), ("REJ", "RSTR", "SF"),
        {0: ("z", 0.8, 1, 40000), 22: ("i", 1, 20), 23: ("i", 1, 10),
         26: ("r", 0.3, 1.0), 27: ("r", 0.3, 1.0), 28: ("r", 0.2, 1.0),
         29: ("r", 0.0, 0.6), 31: ("i", 1, 255), 32: ("i", 1, 60),
         33: ("r", 0.0, 0.6), 34: ("r", 0.1, 1.0), 35: ("r", 0.2, 1.0),
         39: ("r", 0.2, 1.0), 40: ("r", 0.3, 1.0)},
    ),
    "satan": Template(
        ("tcp", "udp"), ("other", "private", "http"), ("REJ", "S0", "SF"),
        {22: ("i", 1, 511), 23: ("i", 1, 30), 24: ("r", 0.0, 0.7),
         26: ("r", 0.2, 1.0), 27: ("r", 0.2, 1.0), 28: ("r", 0.0, 0.5),
         29: ("r", 0.2, 1.0), 31: ("i", 1, 255), 32: ("i", 1, 60),
         33: ("r", 0.0, 0.5), 34: ("r", 0.1, 1.0), 37: ("r", 0.0, 0.6),
         39: ("r", 0.2, 1.0)},
    ),
    "guess_passwd": Template(
        ("tcp",), ("telnet", "ftp", "pop_3"), ("RSTO", "SF", "SF"),
        {0: ("i", 0, 6), 4: ("i", 90, 140), 5: ("i", 90, 300),
         9: ("z", 0.5, 1, 1), 10: ("i", 0, 1), 22: ("i", 1, 4), 23: ("i", 1, 4),
         26: ("r", 0.0, 0.5), 28: ("r", 0.7, 1.0), 31: ("i", 1, 255),
         32: ("i", 1, 80), 33: ("r", 0.1, 1.0), 39: ("r", 0.0, 0.6)},
    ),
    "warezclient": Template(
        ("tcp",), ("ftp_data", "ftp"), ("SF",),
        {0: ("z", 0.6, 1, 2000), 4: ("l", 7.0, 2.0), 5: ("l", 5.0, 2.0),
         9: ("z", 0.5, 1, 28), 11: ("c", "1"), 21: ("z", 0.4, 1, 1),
         22: ("i", 1, 20), 23: ("i", 1, 20), 28: ("r", 0.7, 1.0),
         31: ("i", 1, 255), 32: ("i", 1, 255), 33: ("r", 0.2, 1.0),
         35: ("r", 0.0, 1.0)},
    ),
    "buffer_overflow": Template(
        ("tcp",), ("telnet", "ftp_data", "ftp"), ("SF",),
        {0: ("i", 0, 300), 4: ("l", 7.0, 1.5), 5: ("l", 7.5, 1.5),
         9: ("i", 0, 4), 11: ("c", "1"), 12: ("i", 0, 2), 13: ("z", 0.3, 1, 1),
         15: ("i", 0, 2), 16: ("i", 0, 2), 22: ("i", 1, 3), 23: ("i", 1, 3),
         28: ("r", 0.7, 1.0), 31: ("i", 1, 255), 32: ("i", 1, 255),
         33: ("r", 0.0, 1.0)},
    ),
    "rootkit": Template(
        ("tcp", "udp"), ("telnet", "other", "ftp_data"), ("SF",),
        {0: ("z", 0.4, 1, 1000), 4: ("l", 6.0, 2.0), 5: ("l", 6.5, 2.0),
         9: ("i", 0, 4), 11: ("z", 0.3, 1, 1), 12: ("i", 0, 1), 13: ("z", 0.6, 1, 1),
         16: ("i", 0, 3), 22: ("i", 1, 5), 23: ("i", 1, 5),
         28: ("r", 0.5, 1.0), 31: ("i", 1, 255), 32: ("i", 1, 80),
         33: ("r", 0.0, 1.0)},
    ),
}


@dataclass(frozen=True)
class Profile:
    """Shape of a labeled training corpus.

    ``distinct`` is the number of distinct pool records per fine label and
    ``copies`` the mean number of times each is written out (1 means no
    duplicate). ``overlap`` is the chance that a numeric column is drawn
    from another label's template; ``noise`` the share of pool records
    whose label is replaced by one from another coarse class.
    """

    distinct: dict[str, int]
    copies: dict[str, float]
    overlap: float
    noise: float


# Distinct counts sit above the sampling targets for normal and dos (so
# prepare draws them down), near them for probe and r2l, and below them for
# u2r (so prepare draws it up), as in the KDD 10% file.
HARD = Profile(
    distinct={
        "normal": 4400, "back": 130, "neptune": 2300, "smurf": 250, "teardrop": 80,
        "ipsweep": 80, "portsweep": 75, "satan": 85,
        "guess_passwd": 30, "warezclient": 75,
        "buffer_overflow": 11, "rootkit": 6,
    },
    copies={
        "normal": 1.15, "back": 2.0, "neptune": 2.0, "smurf": 40.0, "teardrop": 3.0,
        "ipsweep": 2.0, "portsweep": 2.0, "satan": 1.5,
        "guess_passwd": 1.0, "warezclient": 1.0,
        "buffer_overflow": 1.0, "rootkit": 1.0,
    },
    overlap=0.06,
    noise=0.005,
)

_LABELS = tuple(TEMPLATES)


def _draw(spec: _Spec, rng: np.random.Generator) -> str:
    kind = spec[0]
    if kind == "i":
        return str(int(rng.integers(spec[1], spec[2] + 1)))
    if kind == "z":
        if rng.random() < spec[1]:
            return "0"
        return str(int(rng.integers(spec[2], spec[3] + 1)))
    if kind == "l":
        return str(int(round(float(np.exp(rng.normal(spec[1], spec[2]))))))
    if kind == "r":
        return f"{rng.uniform(spec[1], spec[2]):.2f}"
    if kind == "c":
        return spec[1]
    raise ValueError(f"unknown column spec {spec!r}")


def _choice(options: tuple[str, ...], rng: np.random.Generator) -> str:
    return options[int(rng.integers(len(options)))]


def draw_fields(label: str, overlap: float, rng: np.random.Generator) -> list[str]:
    """The 41 feature fields of one connection drawn from ``label``'s
    template; each numeric column comes from a random other template with
    probability ``overlap``."""
    t = TEMPLATES[label]
    fields = ["0"] * N_FIELDS
    fields[1] = _choice(t.protocols, rng)
    fields[2] = _choice(t.services, rng)
    fields[3] = _choice(t.flags, rng)
    for col in range(N_FIELDS):
        if col in (1, 2, 3):
            continue
        source = t
        if rng.random() < overlap:
            source = TEMPLATES[_LABELS[int(rng.integers(len(_LABELS)))]]
        spec = source.columns.get(col)
        if spec is not None:
            fields[col] = _draw(spec, rng)
    return fields


def training_corpus(seed: int, profile: Profile = HARD) -> str:
    """Labeled KDD lines (trailing '.' on the label), duplicates included,
    in a seeded shuffled order."""
    rng = np.random.default_rng([seed, 1])
    pool_weights = np.array([profile.distinct[l] for l in _LABELS], dtype=np.float64)
    # An exact count of noisy records keeps tree sizes alike across seeds.
    pool = int(pool_weights.sum())
    noisy = set(rng.choice(pool, size=int(round(profile.noise * pool)), replace=False).tolist())
    lines: list[str] = []
    index = 0
    for label in _LABELS:
        for _ in range(profile.distinct[label]):
            fields = draw_fields(label, profile.overlap, rng)
            out_label = label
            if index in noisy:
                others = np.array(
                    [COARSE_OF[l] != COARSE_OF[label] for l in _LABELS], dtype=np.float64
                ) * pool_weights
                out_label = _LABELS[int(rng.choice(len(_LABELS), p=others / others.sum()))]
            line = ",".join(fields) + f",{out_label}."
            copies = 1 + int(rng.poisson(profile.copies[label] - 1.0))
            lines.extend([line] * copies)
            index += 1
    order = rng.permutation(len(lines))
    return "".join(lines[i] + "\n" for i in order)


# Live traffic: mostly normal, a thin slice of every attack family.
STREAM_MIX = {
    "normal": 0.90,
    "neptune": 0.025, "smurf": 0.025, "back": 0.005, "teardrop": 0.005,
    "ipsweep": 0.01, "portsweep": 0.01, "satan": 0.01,
    "guess_passwd": 0.004, "warezclient": 0.004,
    "buffer_overflow": 0.001, "rootkit": 0.001,
}
BAD_SHARE = 0.05
BAD_KINDS = ("unknown_protocol", "short_line", "negative_value")


@dataclass(frozen=True)
class Traffic:
    text: str
    truth: list[str]  # coarse class per well-formed line, in order
    bad: list[int]  # 0-based indices of the malformed lines


def _corrupt(fields: list[str], kind: str) -> list[str]:
    fields = list(fields)
    if kind == "unknown_protocol":
        fields[PROTOCOL] = "sctp"
    elif kind == "short_line":
        fields = fields[:-1]  # 40 fields: neither a labeled nor an unlabeled line
    elif kind == "negative_value":
        fields[SRC_BYTES] = f"-{int(fields[SRC_BYTES]) + 1}"
    else:
        raise ValueError(kind)
    return fields


def stream_traffic(seed: int, n_lines: int, profile: Profile = HARD) -> Traffic:
    """``n_lines`` unlabeled lines; exactly ``round(n_lines * BAD_SHARE)``
    of them are malformed, cycling through ``BAD_KINDS``."""
    rng = np.random.default_rng([seed, 2])
    labels = tuple(STREAM_MIX)
    p = np.array([STREAM_MIX[l] for l in labels])
    p = p / p.sum()
    n_bad = int(round(n_lines * BAD_SHARE))
    bad_at = set(int(i) for i in rng.choice(n_lines, size=n_bad, replace=False))
    out: list[str] = []
    truth: list[str] = []
    bad_seen = 0
    for i in range(n_lines):
        label = labels[int(rng.choice(len(labels), p=p))]
        fields = draw_fields(label, profile.overlap, rng)
        if i in bad_at:
            fields = _corrupt(fields, BAD_KINDS[bad_seen % len(BAD_KINDS)])
            bad_seen += 1
        else:
            truth.append(COARSE_OF[label])
        out.append(",".join(fields) + "\n")
    return Traffic(text="".join(out), truth=truth, bad=sorted(bad_at))
