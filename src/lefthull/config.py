"""Line-oriented configuration files.

One `key = value` per line, `#` comments, blank lines ignored.  Keys:
kind (required), params, generators, bounds.  bounds holds colon pairs
like `depth:3 length:2 window:24 seed:11`.
"""

from collections import namedtuple

from .semigroups import (AxPlusB, FiniteTable, FreeMonoid,
                         NumericalSemigroup, PositiveCone, UsageError,
                         cyclic_table)


class ConfigError(Exception):
    def __init__(self, message, line=None):
        super().__init__(message if line is None
                         else "%s (line %d)" % (message, line))


KEYS = ("kind", "params", "generators", "bounds")
# each bound's value where neither the command line nor the config sets it
DEFAULTS = {"depth": 2, "length": 2, "window": 20, "seed": 7}
BOUND_NAMES = tuple(DEFAULTS)


class Config(namedtuple("Config", "kind params generators bounds")):
    __slots__ = ()

    def __new__(cls, kind, params=(), generators=None, bounds=None):
        return super().__new__(cls, kind, params, generators,
                               {} if bounds is None else bounds)


def parse_config(text):
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected key = value, got %r" % line,
                              line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KEYS:
            raise ConfigError("unknown key %r" % key, line=lineno)
        if key in seen:
            raise ConfigError("duplicate key %r" % key, line=lineno)
        seen[key] = (value, lineno)
    if "kind" not in seen:
        raise ConfigError("missing required key 'kind'")

    kind = seen["kind"][0]
    params = tuple(seen["params"][0].split()) if "params" in seen else ()
    generators = tuple(seen["generators"][0].split()) \
        if "generators" in seen else None

    bounds = {}
    if "bounds" in seen:
        value, lineno = seen["bounds"]
        for piece in value.split():
            name, colon, num = piece.partition(":")
            if not colon or name not in BOUND_NAMES:
                raise ConfigError("bad bound %r, expected name:int with "
                                  "name among %s" % (piece, ", ".join(BOUND_NAMES)),
                                  line=lineno)
            try:
                bounds[name] = int(num)
            except ValueError:
                raise ConfigError("bound %r is not an integer" % piece,
                                  line=lineno)
    return Config(kind, params, generators, bounds)


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as err:
        raise ConfigError("cannot read %s: %s" % (path, err.strerror or err))
    except UnicodeDecodeError:
        raise ConfigError("cannot read %s: not UTF-8 text" % path)


def _int_params(cfg, count=None):
    try:
        nums = tuple(int(p) for p in cfg.params)
    except ValueError:
        raise ConfigError("params for kind %r must be integers" % cfg.kind)
    if count is not None and len(nums) != count:
        raise ConfigError("kind %r takes exactly %d integer parameter%s"
                          % (cfg.kind, count, "" if count == 1 else "s"))
    return nums


def build_backend(cfg):
    """The semigroup a configuration names; parameters its constructor
    rejects are a config error on the params key."""
    try:
        return _construct(cfg)
    except (UsageError, ValueError) as err:
        raise ConfigError("kind %r rejects params %r: %s" % (
            cfg.kind, " ".join(cfg.params), err))


def _construct(cfg):
    if cfg.kind == "free":
        return FreeMonoid(_int_params(cfg, 1)[0])
    if cfg.kind == "cone":
        return PositiveCone(_int_params(cfg, 1)[0])
    if cfg.kind == "numerical":
        nums = _int_params(cfg)
        if not nums:
            raise ConfigError("kind 'numerical' needs generator parameters")
        return NumericalSemigroup(nums)
    if cfg.kind == "axb":
        if cfg.params:
            raise ConfigError("kind 'axb' takes no parameters")
        return AxPlusB()
    if cfg.kind == "table":
        if len(cfg.params) == 2 and cfg.params[0] == "cyclic":
            return FiniteTable(cyclic_table(int(cfg.params[1])))
        raise ConfigError("kind 'table' expects params 'cyclic N'")
    raise ConfigError("unknown kind %r" % cfg.kind)


def config_generators(sg, cfg):
    """Generator override parsed in the backend's own syntax, or None."""
    if cfg.generators is None:
        return None
    out = []
    for text in cfg.generators:
        try:
            out.append(sg.parse(text))
        except Exception:
            raise ConfigError("cannot parse generator %r for %s"
                              % (text, sg.describe()))
    return tuple(out)
