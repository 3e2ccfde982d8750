"""The domain of every scalar parameter, written once: the library's entry
points and the command line both check a value with `require`, so a value
outside its domain is named the same way wherever it enters. Epsilon is not
here: its domain depends on the mechanism, which `mechanisms.check_epsilon`
decides."""

# key -> (the name its error gives it, its domain); the keys are the
# library's argument names, which the command line's parameters share.
# The command line names --repeats, -k and --m-eval by their flags.
DOMAINS = {
    "limit": ("limit", ">= 1"), "m": ("m", ">= 1"), "m_density": ("m_density", ">= 1"),
    "precision": ("precision", ">= 1"), "repeats": ("--repeats", ">= 1"),
    "k": ("-k", ">= 1"), "m_eval": ("--m-eval", ">= 1"), "tau": ("tau", "in [0, 1]"),
    "lambda_": ("lambda", "in [0, 1]"), "delta": ("delta", "in (0, 1)"),
    "eta0": ("eta0", "> 0"), "alpha1": ("alpha1", "> 0"), "alpha2": ("alpha2", "> 0"),
}
_IN = {">= 1": lambda v: v >= 1, "in [0, 1]": lambda v: 0 <= v <= 1,
       "in (0, 1)": lambda v: 0 < v < 1, "> 0": lambda v: v > 0}


def require(key: str, value) -> None:
    """Raise ValueError unless `value` lies in the domain of parameter `key`
    (NaN lies in none)."""
    name, domain = DOMAINS[key]
    if not _IN[domain](value):
        raise ValueError(f"{name} must be {domain}, got {value}")
