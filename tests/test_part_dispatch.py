"""No `src/mqed` module outside the coupling and rational layers dispatches
on the type or the kind of a medium part: a consumer reads the part.

A medium is a tuple of `CouplingModel` parts, and what depends on a part's
kind is a property of the part (`closed_form`, `is_rational`,
`frequency_scale`, `suggested_t_max`, its gauge). Those properties read the
kind's one row of the table `couplings._KINDS`, which declares its config
parameters, constructor, coupling profile, scales, horizon, closed form,
nonzero test and manifest record. The guard fails on:

- in any module but `couplings.py` and `rational.py`, the forms of dispatch
  that interface replaced: `isinstance` against `CouplingModel`, `Rational`
  or `QuadRep`, `getattr(..., "base", ...)` and `hasattr(..., "eval_batch")`;
- in any module but `couplings.py`, a read of a kind parameter field of a
  part (`strength`, `resonance`, `width`, `center`, `axis_strengths`,
  `correlation_length`, `amplitude`);
- in every module, `couplings.py` included, a comparison with a coupling kind
  name: a kind name is a key of the table, never a branch.

It also fails when a module defines or reads a name of the model types and
hooks the part interface deleted, or gives `LaplaceResponse` a `parts`
member again.
"""

import ast
from pathlib import Path

from mqed.couplings import _KINDS

SRC = Path(__file__).resolve().parent.parent / "src" / "mqed"
_PART_OWNERS = ("couplings.py", "rational.py")
_KIND_OWNER = "couplings.py"
_PARAMETERS = {"strength", "resonance", "width", "center", "axis_strengths",
               "correlation_length", "amplitude"}
_PART_TYPES = {"CouplingModel", "Rational", "QuadRep"}
_DELETED = {"CombinedElectric", "combined_electric", "GaugedCouplingModel", "chi_hat_rational",
            "eval_batch", "__getattr__"}


def _names(node) -> set:
    """The type names an isinstance class argument holds."""
    parts = node.elts if isinstance(node, ast.Tuple) else [node]
    return {p.id if isinstance(p, ast.Name) else getattr(p, "attr", None) for p in parts}


def _kind_names(node) -> set:
    """The coupling kind names among a comparison operand's string constants."""
    parts = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return {p.value for p in parts if isinstance(p, ast.Constant) and p.value in _KINDS}


def _dispatch(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "LaplaceResponse":
            # its methods and its annotated fields
            found += [f"LaplaceResponse.parts (line {m.lineno})" for m in node.body
                      if "parts" in (getattr(m, "name", None),
                                     getattr(getattr(m, "target", None), "id", None))]
        named = {getattr(node, key, None) for key in ("id", "attr", "name")}
        found += [f"{name} (line {node.lineno})" for name in sorted(named & _DELETED)]
        if isinstance(node, ast.Compare):
            kinds = set().union(*(_kind_names(op) for op in (node.left, *node.comparators)))
            found += [f"comparison with kind {kind!r} (line {node.lineno})"
                      for kind in sorted(kinds)]
        if path.name != _KIND_OWNER and isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load) and node.attr in _PARAMETERS:
            found.append(f"kind parameter {node.attr!r} read (line {node.lineno})")
        if path.name in _PART_OWNERS:
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            fn, args = node.func.id, node.args
            if fn == "isinstance" and len(args) == 2 and _names(args[1]) & _PART_TYPES:
                found.append(f"isinstance on a part type (line {node.lineno})")
            hooks = {"getattr": "base", "hasattr": "eval_batch"}
            if fn in hooks and len(args) >= 2 and isinstance(args[1], ast.Constant) \
                    and args[1].value == hooks[fn]:
                found.append(f"{fn}(..., {args[1].value!r}) (line {node.lineno})")
    return found


def test_no_module_dispatches_on_a_part():
    found = {path.name: _dispatch(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_part_dispatch_is_reported(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def chi(model, part, rep):\n"
        "    if isinstance(part, (Rational, int)):\n"
        "        base = getattr(model, 'base', model)\n"
        "    if hasattr(model, 'eval_batch') or model.kind == 'drude':\n"
        "        return rep\n"
        "    if model.kind in ('zero', 'tabulated') and isinstance(rep, dict):\n"
        "        return combined_electric(model, part)\n"
        "    return model.strength**2 / part.width, rep.table, rep.kind\n"
        "class LaplaceResponse:\n"
        "    def parts(self):\n"
        "        pass\n", encoding="utf-8")
    kinds = ["comparison with kind 'drude' (line 4)",
             "comparison with kind 'tabulated' (line 6)",
             "comparison with kind 'zero' (line 6)"]
    assert sorted(_dispatch(probe)) == sorted([
        "LaplaceResponse.parts (line 10)",
        "isinstance on a part type (line 2)",
        "getattr(..., 'base') (line 3)",
        "hasattr(..., 'eval_batch') (line 4)",
        *kinds,
        "combined_electric (line 7)",
        "kind parameter 'strength' read (line 8)",
        "kind parameter 'width' read (line 8)",
    ])
    # the coupling layer owns the parts and their parameters, but a kind
    # comparison counts there too; the rational layer reads no parameter
    owner = tmp_path / "couplings.py"
    owner.write_text(probe.read_text(encoding="utf-8"), encoding="utf-8")
    assert sorted(_dispatch(owner)) == sorted(["LaplaceResponse.parts (line 10)",
                                               "combined_electric (line 7)", *kinds])
    rational = tmp_path / "rational.py"
    rational.write_text(probe.read_text(encoding="utf-8"), encoding="utf-8")
    assert sorted(_dispatch(rational)) == sorted([
        "LaplaceResponse.parts (line 10)", "combined_electric (line 7)", *kinds,
        "kind parameter 'strength' read (line 8)", "kind parameter 'width' read (line 8)"])
