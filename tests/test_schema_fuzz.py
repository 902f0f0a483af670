"""Malformed input documents: the CLI exits 2 and names the bad file.

Every schema in ``toleq.serialize`` starts from a valid document, and one
mutation breaks it: a required value is deleted, a value is replaced by one
of another JSON type, or a number is replaced by a non-finite or oversized
literal.  The base documents are chosen so that every such mutation leaves
a document the schema rejects (no optional fields, lists whose every element
matters), so the expected outcome never depends on which mutation was drawn.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from toleq import serialize
from toleq.cli import main

GAME = {
    "players": 2,
    "strategies": [["C", "D"], ["C", "D"]],
    "payoffs": [[[3.0, 3.0], [-2.0, 5.0]], [[5.0, -2.0], [0.0, 0.0]]],
}
PROFILE = {"strategies": [[0.25, 0.75], [0.25, 0.75]]}
DISCRETE = {"type": "discrete", "support": [0.0, 3.0], "probs": [0.75, 0.25]}
DOMINATING = {"type": "discrete", "support": [0.5, 3.5], "probs": [0.75, 0.25]}
PI = {"players": [DISCRETE, DISCRETE]}
MAP = {"support": [0.0, 3.0], "strategies": [[0.25, 0.75], [1.0, 0.0]]}
CDFS = {
    "uniform": {"type": "uniform", "lo": 0.0, "hi": 4.0},
    "piecewise_linear": {"type": "piecewise_linear", "knots": [[0.0, 0.0], [4.0, 1.0]]},
    "truncated_exponential": {"type": "truncated_exponential", "rate": 1.5, "cap": 3.0},
    "discrete": DISCRETE,
}
SPECS = {
    "pd": {"kind": "pd", "b": 5.0, "c": 2.0},
    "td": {"kind": "td", "L": 2, "H": 100, "b": 2},
    "pg": {"kind": "pg", "N": 3, "rho": 0.5},
    "bertrand": {"kind": "bertrand", "n": 3, "L": 2, "H": 30},
}
PD_FLAGS = ["--a", "3", "--b", "-1", "--c", "5", "--d", "0"]

# schema -> (documents the command reads, index of the one to break, argv builder)
CASES = {
    "game": ([GAME, PROFILE, PI], 0, lambda f: ["verify", "--game", f[0], "--profile", f[1], "--pi", f[2]]),
    "profile": ([GAME, PROFILE, PI], 1, lambda f: ["verify", "--game", f[0], "--profile", f[1], "--pi", f[2]]),
    "tolerance_profile": ([GAME, PROFILE, PI], 2,
                          lambda f: ["verify", "--game", f[0], "--profile", f[1], "--pi", f[2]]),
    "remap_source": ([DISCRETE, DOMINATING, MAP], 0,
                     lambda f: ["remap", "--pi", f[0], "--pi-prime", f[1], "--g", f[2]]),
    "remap_target": ([DISCRETE, DOMINATING, MAP], 1,
                     lambda f: ["remap", "--pi", f[0], "--pi-prime", f[1], "--g", f[2]]),
    "type_strategy_map": ([DISCRETE, DOMINATING, MAP], 2,
                          lambda f: ["remap", "--pi", f[0], "--pi-prime", f[1], "--g", f[2]]),
    **{
        f"cdf_{name}": ([doc], 0, lambda f: ["pd-solve", *PD_FLAGS, "--cdf", f[0]])
        for name, doc in CDFS.items()
    },
    **{
        f"spec_{name}": ([doc], 0, lambda f: ["threshold", "--spec", f[0], "--beta", "0.5"])
        for name, doc in SPECS.items()
    },
}

OTHER_TYPES = [None, True, "0.5", 7, [], [1.0], {}, {"x": 1}]
BAD_NUMBERS = ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400]


def _kind(value):
    if isinstance(value, bool) or value is None:
        return type(value)
    return {int: float}.get(type(value), type(value))


def _sites(doc, at=()):
    """Paths to every value in a document, the document itself first."""
    yield at
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _sites(value, at + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw, base):
    """(JSON text, description) of a document that one mutation broke."""
    doc = json.loads(json.dumps(base))
    site = draw(st.sampled_from(list(_sites(doc))))
    value = _at(doc, site)
    moves = ["delete", "retype"] + (["bad_number"] if _kind(value) is float else [])
    move = draw(st.sampled_from(moves))
    if move == "delete" and not site:
        return "", "empty file"
    if move == "bad_number":
        literal = draw(st.sampled_from(BAD_NUMBERS))
        replacement = "@@bad@@"
    else:
        replacement = draw(st.sampled_from([v for v in OTHER_TYPES if _kind(v) is not _kind(value)]))
    if not site:
        return json.dumps(replacement), f"document replaced by {replacement!r}"
    parent = _at(doc, site[:-1])
    if move == "delete":
        del parent[site[-1]]
    else:
        parent[site[-1]] = replacement
    text = json.dumps(doc)
    if move == "bad_number":
        text = text.replace('"@@bad@@"', literal)
        replacement = literal
    return text, f"{move} at {list(site)}: {replacement!r}"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _write_case(folder, docs, broken, text):
    files = []
    for i, doc in enumerate(docs):
        path = Path(folder) / f"doc{i}.json"
        path.write_text(text if i == broken else json.dumps(doc), encoding="utf-8")
        files.append(str(path))
    return files


@pytest.mark.parametrize("schema", sorted(CASES))
def test_base_documents_are_valid(schema, tmp_path):
    docs, broken, argv = CASES[schema]
    files = _write_case(tmp_path, docs, broken, json.dumps(docs[broken]))
    assert _run(argv(files))[0] == 0


@pytest.mark.parametrize("schema", sorted(CASES))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_malformed_document_exits_2_naming_the_file(schema, data):
    docs, broken, argv = CASES[schema]
    text, what = data.draw(mutated(docs[broken]))
    with tempfile.TemporaryDirectory() as folder:
        files = _write_case(folder, docs, broken, text)
        code, out, err = _run(argv(files))
    assert (code, out) == (2, ""), what
    assert files[broken] in err, (what, err)


SEMANTIC_VIOLATIONS = {
    "game": [dict(GAME, players=0, strategies=[], payoffs=[]), dict(GAME, strategies=[["C", "D"], []])],
    "profile": [{"strategies": [[0.25, 0.5], [0.5, 0.5]]}, {"strategies": [[1.5, -0.5], [0.5, 0.5]]},
                {"strategies": [[0.25, 0.75]]}, {"strategies": [[0.25, 0.25, 0.5], [0.5, 0.5]]}],
    "tolerance_profile": [{"players": [DISCRETE]}, {"players": [dict(DISCRETE, support=[3.0, 0.0]), DISCRETE]},
                          {"players": [dict(DISCRETE, probs=[0.5, 0.25]), DISCRETE]},
                          {"players": [dict(DISCRETE, support=[-1.0, 3.0]), DISCRETE]},
                          {"players": [CDFS["uniform"], DISCRETE]}],
    "type_strategy_map": [dict(MAP, support=[0.0, 2.0]), dict(MAP, support=[3.0, 0.0])],
    "remap_source": [CDFS["uniform"], dict(DISCRETE, probs=[0.0, 1.0])],
    "cdf_uniform": [dict(CDFS["uniform"], lo=5.0), dict(CDFS["uniform"], lo=-1.0), {"type": "gaussian"}],
    "cdf_piecewise_linear": [{"type": "piecewise_linear", "knots": [[0.0, 0.0], [4.0, 0.5]]},
                             {"type": "piecewise_linear", "knots": [[4.0, 0.0], [0.0, 1.0]]},
                             {"type": "piecewise_linear", "knots": [[0.0, 0.0], [2.0, 0.75], [4.0, 0.5]]}],
    "cdf_truncated_exponential": [dict(CDFS["truncated_exponential"], rate=-1.0),
                                  dict(CDFS["truncated_exponential"], shift=-0.5)],
    "spec_pd": [dict(SPECS["pd"], b=1.0)],
    "spec_td": [dict(SPECS["td"], H=2), dict(SPECS["td"], L=2.5)],
    "spec_pg": [dict(SPECS["pg"], rho=1.5), dict(SPECS["pg"], N=1)],
    "spec_bertrand": [dict(SPECS["bertrand"], L=1), dict(SPECS["bertrand"], n="3")],
}


@pytest.mark.parametrize(
    "schema, doc", [(schema, doc) for schema, docs in SEMANTIC_VIOLATIONS.items() for doc in docs]
)
def test_out_of_range_documents_exit_2_naming_the_file(schema, doc, tmp_path):
    docs, broken, argv = CASES[schema]
    files = _write_case(tmp_path, docs, broken, json.dumps(doc))
    code, out, err = _run(argv(files))
    assert (code, out) == (2, "")
    assert files[broken] in err


def _verdict_doc(positive):
    if positive:
        return {"equilibrium": True, "witness": {"0": {"0.0": [0.25, 0.75]}}}
    return {"equilibrium": False, "violation": {"player": 0, "threshold": 0.0, "excess_mass": 0.2,
                                                "detail": "types with tolerance <= 0 are short"}}


@pytest.mark.parametrize("positive", [True, False])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_malformed_verdict_raises_a_schema_error_naming_the_file(positive, data):
    # no command reads a verdict, so the loader is called directly
    base = _verdict_doc(positive)
    text, what = data.draw(mutated(base))
    with tempfile.TemporaryDirectory() as folder:
        path = str(Path(folder) / "verdict.json")
        Path(path).write_text(text, encoding="utf-8")
        with pytest.raises(serialize.SchemaError) as err:
            serialize.verdict_from_obj(serialize.load_json(path), path)
    assert path in str(err.value), what


@pytest.mark.parametrize("positive", [True, False])
def test_base_verdicts_are_valid(positive):
    verdict = serialize.verdict_from_obj(_verdict_doc(positive))
    assert verdict.is_equilibrium == positive
