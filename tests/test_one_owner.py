"""A ratchet on one owner per rule: ``potential`` alone spells the bump's
profile, ``eigensolve.richardson`` alone writes the Richardson combine,
``eigensolve._floor`` alone writes the residual floor 8 eps ||T||_1, and
``PotentialSpec.bump_height`` alone answers how large the bumps are.

The checks read the package sources, so a second copy of the profile, of
the combine or of the floor, a reach into ``potential``'s private names, a
test of a bump strength outside ``potential`` or a hard-coded support list
fails here before it can drift from the one owner.
"""

import ast
from pathlib import Path

import specpair

SRC = Path(specpair.__file__).parent
PROFILE = "exp(1.0 - 1.0 /"


def _modules() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_the_bump_profile_is_written_only_in_potential():
    spelled = [name for name, text in _modules().items() if PROFILE in text]
    assert spelled == ["potential"]


def test_no_module_imports_a_private_name_of_potential():
    reached = []
    for name, text in _modules().items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.module in ("potential",
                                                                     "specpair.potential"):
                reached += [f"{name}: {a.name}" for a in node.names if a.name.startswith("_")]
            elif isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                    and isinstance(node.value, ast.Name) and node.value.id == "potential":
                reached.append(f"{name}: potential.{node.attr}")
    assert reached == []


def _thirds(tree) -> list:
    """Every division by the literal 3 under ``tree``: the combine's ``/ 3.0``."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Div) and isinstance(node.right, ast.Constant)
            and node.right.value == 3]


def test_the_richardson_combine_is_written_only_in_richardson():
    written = []
    for name, text in _modules().items():
        tree = ast.parse(text)
        owner = [node for node in tree.body if name == "eigensolve"
                 and isinstance(node, ast.FunctionDef) and node.name == "richardson"]
        allowed = {id(node) for fn in owner for node in _thirds(fn)}
        written += [f"{name}:{node.lineno}: {ast.unparse(node)}" for node in _thirds(tree)
                    if id(node) not in allowed]
    assert written == []


def _floors(tree) -> list:
    """Every product of ``_EPS`` with a matrix norm (``norm1``, or ``np.max`` of the diagonal)."""
    def has(t, pred):
        return any(pred(node) for node in ast.walk(t))

    def eps(node):
        return isinstance(node, ast.Name) and node.id == "_EPS"

    def norm(node):
        return isinstance(node, ast.Attribute) and node.attr in ("norm1", "max")

    return [node for node in ast.walk(tree) if isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Mult)
            and (has(node.left, eps) and has(node.right, norm)
                 or has(node.left, norm) and has(node.right, eps))]


def test_the_residual_floor_is_written_only_in_floor():
    written, owned = [], []
    for name, text in _modules().items():
        tree = ast.parse(text)
        owner = [node for node in tree.body if name == "eigensolve"
                 and isinstance(node, ast.FunctionDef) and node.name == "_floor"]
        allowed = {id(node) for fn in owner for node in _floors(fn)}
        owned += allowed
        written += [f"{name}:{node.lineno}: {ast.unparse(node)}" for node in _floors(tree)
                    if id(node) not in allowed]
    assert written == []
    assert len(owned) == 1


def _number(node) -> float | None:
    """The value of a numeric literal (a leading minus allowed), else None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _number(node.operand)
        return None if inner is None else -inner
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    return None


def test_weyl_term_holds_no_literal_support_list():
    # a list of positions carries a sign or a fraction; the quadrature
    # orders (128, 256) are neither
    tree = ast.parse(_modules()["traces"])
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "weyl_term")
    literals = []
    for node in ast.walk(fn):
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)) and len(node.elts) >= 2:
            values = [_number(e) for e in node.elts]
            if None not in values and any(isinstance(v, float) or v < 0 for v in values):
                literals.append(ast.unparse(node))
    assert literals == []


def _strength_reads(name: str, tree) -> list[str]:
    """``module.function`` of every comparison or arithmetic with an operand ``.t`` or ``.eps``.

    The operand must read a named object (``p.t``, ``level.p.eps``), not a
    call's result such as machine epsilon, ``np.finfo(float).eps``.
    """
    reads = []

    def strength(o):
        return isinstance(o, ast.Attribute) and o.attr in ("t", "eps") \
            and isinstance(o.value, (ast.Name, ast.Attribute))

    def visit(node, where):
        if isinstance(node, ast.FunctionDef):
            where = node.name
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.BinOp):
            operands = [node.left, node.right]
        else:
            operands = []
        if any(strength(o) for o in operands):
            reads.append(f"{name}.{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return reads


def test_only_potential_reads_the_bump_strengths():
    # "is this the bare oscillator?" and "how far can the bumps lift V?" are
    # ``bump_height``'s: t = 0 and amplitude 0 must get one verdict.  The
    # witness's precondition is about the beta strength itself (eps = 0).
    allowed = {"hadamard.asymmetry_witness"}
    reads = {read for name, text in _modules().items() if name != "potential"
             for read in _strength_reads(name, ast.parse(text))}
    assert sorted(reads - allowed) == []
