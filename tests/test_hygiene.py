"""Source hygiene without a linter: every imported name is used, every
function, class and method is referenced somewhere, guarded fields are
written only where allowed, RatFun's packed fields are read only in
`ratfun`, `verify` reads the Fock operators only through their packed
definitions, the finite-variable oracles stay an independent route,
every memo is a functools cache, and no module reaches the token count at
which the parser doubles its token array."""

import ast
import io
import tokenize
from pathlib import Path
from typing import Iterator

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "symfock"
TESTS = Path(__file__).resolve().parent


def _exported(tree: ast.AST) -> set[str]:
    """Names listed in __all__."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    # names re-exported through __all__ count as used
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "from typing import Iterable, Iterator\nimport os\n\ndef f(x: Iterator) -> None:\n    pass\n"
    assert _unused_imports(source) == ["Iterable (line 1)", "os (line 2)"]


def _imported_names(source: str) -> set[str]:
    """Every name bound by an import statement of the source."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


def test_fock_builds_modes_without_linear_combination():
    # every mode body is one packed digit sum; a SymFunc sum beside it would
    # be a second implementation of the same operation
    assert "linear_combination" not in _imported_names((SRC / "fock.py").read_text())


# ratfun's codec is the one packed-digit format: fock lays out slots and
# chooses widths, but never converts between ints and bytes itself, nor
# reads ratfun's own packed Q(t) polynomials, their limb or their division
CODEC_INTERNALS = {"to_bytes", "from_bytes", "memoryview", "_WORDS", "_WIDTH_STEP"} | {
    "TPoly", "LIMB_BITS", "_HALF", "_limbs", "_pack_fractions", "poly_gcd", "poly_divmod"
}


def _names_read(source: str, names: set[str]) -> list[str]:
    """The names of the set that the source reads as a name or an attribute,
    as name:line (docstrings and comments do not count)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name in names and isinstance(getattr(node, "ctx", None), ast.Load):
            found.append(f"{name}:{node.lineno}")
    return sorted(found)


def test_fock_packs_only_through_the_ratfun_codec():
    assert _names_read((SRC / "fock.py").read_text(), CODEC_INTERNALS) == []


def test_codec_internal_read_is_reported():
    source = (
        '"""Packed with to_bytes."""\nfrom .ratfun import _WORDS\n\n\n'
        "def pack(x, size):\n    word = _WORDS.get(size)  # not memoryview\n"
        "    return memoryview(x.to_bytes(size, 'little')).cast(word)\n"
    )
    assert _names_read(source, CODEC_INTERNALS) == ["_WORDS:6", "memoryview:7", "to_bytes:7"]
    source = (
        "from . import ratfun\nfrom .ratfun import TPoly, poly_gcd\n\n\n"
        "def lcm(d, q):\n    g = poly_gcd(q, TPoly(d, 1))  # not _limbs\n"
        "    return ratfun.poly_divmod(d, g), d >> ratfun.LIMB_BITS\n"
    )
    assert _names_read(source, CODEC_INTERNALS) == ["LIMB_BITS:7", "TPoly:6", "poly_divmod:7", "poly_gcd:6"]


# every Fock-kernel suite reads `fock`'s operator definitions as pieces on
# packed columns: verify reads neither the vector route (mode_apply and a
# SymFunc sum) nor the bilinear caches beneath alpha, twisted_alpha and virasoro
VECTOR_ROUTE = {"mode_apply", "linear_combination", "bilinear_column"}


def test_verify_reads_only_the_fock_operator_definitions():
    assert _names_read((SRC / "verify.py").read_text(), VECTOR_ROUTE) == []


def test_vector_route_read_is_reported():
    source = (
        '"""Checked through mode_apply."""\nfrom . import symfunc\nfrom .fock import bilinear_column, mode_apply\n\n\n'
        "def run(v):\n    col = bilinear_column(1, 0, (), False)  # not linear_combination\n"
        "    return symfunc.linear_combination([(1, mode_apply(K, 0, v).body)]), col\n"
    )
    assert _names_read(source, VECTOR_ROUTE) == ["bilinear_column:7", "linear_combination:8", "mode_apply:8"]


def test_imported_names_are_read():
    source = "import os.path\nfrom a import b as c, d\n\ndef f():\n    from e import g\n"
    assert _imported_names(source) == {"os", "c", "d", "g"}


def _dead_definitions(sources: dict[str, str], referencing: list[str]) -> list[str]:
    """Top-level functions and classes, and their methods, of the modules in
    sources whose name is never read as a name or an attribute in any of the
    referencing sources; dunders are exempt and __all__ entries count."""
    refs: set[str] = set()
    for source in referencing:
        tree = ast.parse(source)
        refs |= _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    dead = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, kinds):
                continue
            defs = [(node.name, node.name)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{m.name}", m.name) for m in node.body if isinstance(m, kinds)]
            for qualname, name in defs:
                dunder = name.startswith("__") and name.endswith("__")
                if not dunder and name not in refs:
                    dead.append(f"{module}.{qualname}")
    return sorted(dead)


def test_no_dead_definitions():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    tests = [path.read_text() for path in sorted(TESTS.glob("*.py"))]
    assert _dead_definitions(sources, [*sources.values(), *tests]) == []


def test_dead_definition_is_reported():
    source = (
        "class A:\n    def __init__(self):\n        pass\n\n    def used(self):\n        pass\n\n"
        "    def unused(self):\n        pass\n\n\ndef helper():\n    return A().used()\n\n\n"
        "def exported():\n    pass\n\n\n__all__ = ['exported']\n"
    )
    assert _dead_definitions({"m": source}, [source]) == ["m.A.unused", "m.helper"]


# a RatFun is a value: only its two constructors write the packed fields;
# a SymFunc's terms are written once by its constructor (kp's TensorState
# has a terms field of its own, also written only by its constructor), and
# its perp plan only by the memo that perp_apply reads
PACKED_FIELDS = {"ne", "nd", "de", "dd"}
FIELD_WRITERS = {
    **dict.fromkeys(PACKED_FIELDS, {"RatFun.__init__", "RatFun._raw"}),
    "terms": {"SymFunc.__init__", "TensorState.__init__"},
    "_perp_plans": {"_perp_plan"},
}


def _scoped_nodes(source: str) -> Iterator[tuple[str, ast.AST]]:
    """Every node of the source below the defs and classes, with the dotted
    name of the defs and classes around it ("" outside any)."""

    def visit(node: ast.AST, scope: tuple[str, ...]) -> Iterator[tuple[str, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, (*scope, child.name))
                continue
            yield ".".join(scope), child
            yield from visit(child, scope)

    return visit(ast.parse(source), ())


def _guarded_field_writes(sources: dict[str, str]) -> list[str]:
    """Assignments, deletions and setattr calls on an attribute named in
    FIELD_WRITERS outside the scopes listed for it, as module.scope:line."""
    found = []
    for module, source in sources.items():
        for scope, node in _scoped_nodes(source):
            written = None
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
                written = node.attr
            elif isinstance(node, ast.Call) and len(node.args) >= 2:
                # setattr(obj, "ne", v) and object.__setattr__(obj, "ne", v)
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("setattr", "__setattr__") and isinstance(node.args[1], ast.Constant):
                    written = node.args[1].value
            if written in FIELD_WRITERS and scope not in FIELD_WRITERS[written]:
                found.append(f"{module}.{scope or '<module>'}:{node.lineno}")
    return sorted(found)


def test_packed_fields_written_only_by_constructors():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _guarded_field_writes(sources) == []


def test_packed_field_write_is_reported():
    source = (
        "class RatFun:\n    def __init__(self, n):\n        self.ne = n\n\n"
        "    @classmethod\n    def _raw(cls, n):\n        out = object.__new__(cls)\n        out.ne = n\n        return out\n\n"
        "    def _reduce(self):\n        self.ne, self.nd = self.nd, self.ne\n\n\n"
        "def bump(r):\n    r.dd += 1\n    setattr(r, 'de', 2)\n    return r.ne\n\n\n"
        "r = RatFun(1)\ndel r.de\n"
    )
    assert _guarded_field_writes({"m": source}) == [
        "m.<module>:22",
        "m.RatFun._reduce:12",
        "m.RatFun._reduce:12",
        "m.bump:16",
        "m.bump:17",
    ]


def test_symfunc_field_write_is_reported():
    source = (
        "class SymFunc:\n    def __init__(self, terms):\n        self.terms = terms\n\n"
        "    def scaled(self, c):\n        self.terms = {}\n        self._perp_plans = None\n\n\n"
        "def _perp_plan(f):\n    f._perp_plans = {}\n    f.terms = {}\n\n\n"
        "def perp_apply(f):\n    setattr(f, '_perp_plans', {})\n    return f.terms\n"
    )
    assert _guarded_field_writes({"m": source}) == [
        "m.SymFunc.scaled:6",
        "m.SymFunc.scaled:7",
        "m._perp_plan:12",
        "m.perp_apply:16",
    ]


# ratfun is the one module that reads or combines the packed fields: every
# other module sums RatFun products through sum_products, pull and the operators
PACKED_READS = PACKED_FIELDS | {"_raw"}


def _packed_field_reads(sources: dict[str, str]) -> list[str]:
    """Reads of a packed field or of RatFun._raw (a call or a reference)
    outside the ratfun module, as module.scope:line."""
    return sorted(
        f"{module}.{scope or '<module>'}:{node.lineno}"
        for module, source in sources.items()
        if module != "ratfun"
        for scope, node in _scoped_nodes(source)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr in PACKED_READS
    )


def test_packed_fields_read_only_in_ratfun():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _packed_field_reads(sources) == []


def test_packed_field_read_is_reported():
    source = (
        "from .ratfun import RatFun\n\n\n"
        "class Acc:\n    def add(self, r):\n        return RatFun._raw(r.ne, r.nd, 1, 1)\n\n"
        "    def clear(self, r):\n        r.ne = 0  # not r.de\n\n\n"
        "def unit(c):\n    return c.de == 1 and c.dd == 1\n\n\n"
        "make = RatFun._raw\n"
    )
    assert _packed_field_reads({"m": source, "ratfun": source}) == [
        "m.<module>:16",
        "m.Acc.add:6",
        "m.Acc.add:6",
        "m.Acc.add:6",
        "m.unit:13",
        "m.unit:13",
    ]


# the finite-variable oracles are a route of their own: neither they nor
# any bases helper they reach names the p-basis, vertex or Fock routes
ORACLES = ("schur_oracle", "hall_littlewood_oracle")
OTHER_ROUTES = {"complete_h", "elementary_e", "q_coefficient", "schur", "dual_schur", "SymFunc", "fock", "vertex"}


def _route_leaks(source: str, roots: tuple[str, ...], forbidden: set[str]) -> list[str]:
    """Forbidden names read by the roots, or by any top-level function of
    the source that they reach by name, as function:name."""
    defs = {node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    found: set[str] = set()
    seen: set[str] = set()
    todo = list(roots)
    while todo:
        fn = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        for node in ast.walk(defs[fn]):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in forbidden:
                found.add(f"{fn}:{name}")
            elif name in defs:
                todo.append(name)
    return sorted(found)


def test_oracles_share_no_code_with_other_routes():
    assert _route_leaks((SRC / "bases.py").read_text(), ORACLES, OTHER_ROUTES) == []


def test_q_coefficient_reads_no_h_or_e():
    # q_k comes from its power-sum form, so `corollaries` checks the h.e
    # convolution of `vertex` against a value built without h or e
    assert _route_leaks((SRC / "bases.py").read_text(), ("q_coefficient",), {"complete_h", "elementary_e"}) == []


def test_route_leak_is_reported():
    source = (
        "from .symfunc import SymFunc\n\n\ndef schur(la):\n    return la\n\n\n"
        "def _helper(n):\n    return SymFunc.one() if n else fock.zero\n\n\n"
        "def oracle(la):\n    return _helper(len(la)) + schur(la)\n\n\n"
        "def unrelated():\n    return vertex.mode\n"
    )
    assert _route_leaks(source, ("oracle",), OTHER_ROUTES) == ["_helper:SymFunc", "_helper:fock", "oracle:schur"]


# functools.cache is the one memo mechanism, so every memo reports cache_info();
# the dicts that stay are the two bilinear caches and the per-kernel mode cache,
# which the bench shim reads by name, and verify's per-process skip set
MEMO_DICTS = {"fock._heis_cache", "fock._vir_cache", "fock.VertexKernel._modes", "verify._passed"}


def _is_empty_container(node: ast.AST) -> bool:
    """{}, [], dict(), list() or set()."""
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("dict", "list", "set")
        and not node.args and not node.keywords
    )


def _hand_rolled_memos(sources: dict[str, str]) -> list[str]:
    """Empty dicts, lists and sets bound at module level or to self.<name> in
    an __init__, outside MEMO_DICTS, and every use of lru_cache, as
    module.name:line."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        statements = [("", node) for node in tree.body]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                        statements += [(cls.name + ".", node) for node in ast.walk(fn)]
        for owner, node in statements:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            if node.value is None or not _is_empty_container(node.value):
                continue
            for target in targets:
                if owner:
                    on_self = isinstance(target, ast.Attribute) and getattr(target.value, "id", None) == "self"
                    name = target.attr if on_self else None
                else:
                    name = getattr(target, "id", None)
                if name and f"{module}.{owner}{name}" not in MEMO_DICTS:
                    found.append(f"{module}.{owner}{name}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                names = [getattr(node, "id", None) or getattr(node, "attr", None)]
            if "lru_cache" in names:
                found.append(f"{module}.lru_cache:{node.lineno}")
    return sorted(found)


def test_memos_are_functools_caches():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _hand_rolled_memos(sources) == []


def test_hand_rolled_memo_is_reported():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n\n_memo = {}\n_seen: set[int] = set()\n"
        "_heis_cache = {}\nLIMITS = {'a': 1}\n\n\n"
        "class VertexKernel:\n    def __init__(self):\n        self._rows: list = []\n        self._modes = dict()\n"
        "        self.name = 'k'\n\n    def grow(self):\n        self._late = {}\n\n\n"
        "@functools.lru_cache(maxsize=None)\ndef f(n):\n    seen = {}\n    return seen\n\n\n"
        "g = cache(f)\n"
    )
    assert _hand_rolled_memos({"fock": source, "verify": "_passed = {}\n_order = []\n"}) == [
        "fock.VertexKernel._rows:12",
        "fock._memo:4",
        "fock._seen:5",
        "fock.lru_cache:2",
        "fock.lru_cache:20",
        "verify._order:2",
    ]


# every packed fermion composition is read in the charge-0 frame, from the
# two sides of one fock.diagonal; nothing else in the package builds one
COMPOSITION_READERS = {"fock.diagonal"}


def _composition_readers(sources: dict[str, str]) -> list[str]:
    """The top-level functions, methods and module code that read the name
    `composition` (a call or a reference), outside COMPOSITION_READERS, as
    module.name (module.<module> for code outside any def or class)."""
    found = set()
    for module, source in sources.items():
        scopes = []
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef):
                scopes += [(f"{node.name}.{getattr(fn, 'name', '<class>')}", fn) for fn in node.body]
            else:
                scopes.append((getattr(node, "name", "<module>"), node))
        for name, scope in scopes:
            for node in ast.walk(scope):
                if getattr(node, "id", None) == "composition" or getattr(node, "attr", None) == "composition":
                    found.add(f"{module}.{name}")
    return sorted(found - COMPOSITION_READERS)


def test_compositions_are_read_only_through_diagonal():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _composition_readers(sources) == []


def test_composition_reader_is_reported():
    source = (
        "from .fock import composition\n\n\n"
        "def diagonal(k1, k2, d, la):\n    return cache(lambda a: composition(k1, a, k2, d - a, la))\n\n\n"
        "def _normal_ordered_pair(k, la):\n    return composition(P, 0, M, k - 1, la)\n\n\n"
        "class Sweep:\n    build = fock.composition\n\n    def run(self):\n        return self.composition\n\n\n"
        "def unrelated(x):\n    return x\n\n\nALIAS = composition\n"
    )
    assert _composition_readers({"fock": source, "verify": "def diagonal():\n    return composition\n"}) == [
        "fock.<module>",
        "fock.Sweep.<class>",
        "fock.Sweep.run",
        "fock._normal_ordered_pair",
        "verify.diagonal",
    ]


# CPython 3.11's parser holds a module's tokens in an array of 8,192 that it
# doubles when full: fock.py padded from 8,162 to 8,202 tokens raised its
# compile peak from 2.8 to 3.3 MB, and a draft at 8,573 tokens raised the
# bilinear-pool bench's peak RSS by 0.6 MB, in every process that compiles it
PARSER_TOKEN_ARRAY = 8192


def _parser_tokens(source: str) -> int:
    """The tokens of the source, without ENCODING, COMMENT and NL."""
    skip = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL}
    return sum(tok.type not in skip for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline))


def _past_the_token_array(sources: dict[str, str]) -> dict[str, int]:
    """The token count of each source at or above PARSER_TOKEN_ARRAY."""
    counts = {name: _parser_tokens(source) for name, source in sources.items()}
    return {name: n for name, n in counts.items() if n >= PARSER_TOKEN_ARRAY}


def test_modules_stay_below_the_parser_token_doubling():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _past_the_token_array(sources) == {}


def test_parser_token_doubling_is_reported():
    assert _parser_tokens("x = 1  # one\n\n") == 5  # NAME OP NUMBER NEWLINE ENDMARKER
    below = "x\n" * 4095 + "# a comment\n\n"
    at = "x\n" * 4094 + "x;\n"
    assert _past_the_token_array({"below.py": below, "at.py": at, "past.py": below + "y\n"}) == {
        "at.py": 8192,
        "past.py": 8193,
    }
