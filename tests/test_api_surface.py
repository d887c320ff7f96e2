"""Every public top-level function and class of the package, and every
public method and property of its classes, has a caller in the program: the
package itself, the benchmark or the scripts. A public name that only tests
reach is dead code, unless it is listed below with the reason tests need
it. Methods are named `Class.method`, and a method counts as called when
the program uses its attribute name."""

import ast
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ceralab"

# public names that only tests call, each with the reason tests need it
TEST_REFERENCES = {
    "finite_difference_check": "the gradient gate of the test suite",
    "measure_throughput": "acceptance criterion 11's latency ratio",
    "logistic_map": "the exact map the printed table is checked against",
}


def is_public(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
        and not node.name.startswith("_")


def public_definitions() -> dict[str, str]:
    """name -> defining module, for every public top-level def and class and
    every public method (properties included) of a top-level class."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not is_public(node):
                continue
            defs[node.name] = path.stem
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if is_public(member) and isinstance(member, ast.FunctionDef):
                        defs[f"{node.name}.{member.name}"] = path.stem
    return defs


def called_name(name: str) -> str:
    """The name a caller uses: a method's attribute name, else the name."""
    return name.rsplit(".", 1)[-1]


def referenced_names(tree: ast.AST, strings: bool = False) -> set[str]:
    """Identifiers, attribute names and imported names used anywhere in
    `tree`; with `strings`, exact string constants too (the benchmark looks
    functions up by name)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def program_references() -> set[str]:
    """Names the program uses. A definition's own body does not count for
    it, and the package `__init__` only re-exports, so it counts for none."""
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            used = referenced_names(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                used.discard(node.name)
            names |= used
    for folder in ("bench", "scripts"):
        for path in sorted((ROOT / folder).glob("*.py")):
            names |= referenced_names(ast.parse(path.read_text()), strings=True)
    return names


def test_every_public_name_has_a_program_caller():
    used = program_references()
    unused = sorted(name for name in public_definitions()
                    if called_name(name) not in used and name not in TEST_REFERENCES)
    assert unused == [], f"public names only tests reach: {unused}"


def test_test_references_are_current():
    # each listed name exists, still has no program caller, and a test uses it
    defs, used = public_definitions(), program_references()
    tests = set()
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        if path.name != Path(__file__).name:
            tests |= referenced_names(ast.parse(path.read_text()))
    for name in TEST_REFERENCES:
        assert name in defs, f"{name} is no longer defined"
        assert called_name(name) not in used, \
            f"{name} has a program caller; drop it from the list"
        assert called_name(name) in tests, f"no test uses {name}"


def test_every_tensor_half_is_called_by_the_program(monkeypatch):
    # a census over tiny models: a dead half cannot hide behind a test,
    # because only what these train, eval and capture runs call counts
    import inspect

    from ceralab import tensor as T
    from ceralab import trainer
    from ceralab.adapters import Adapter, AdapterConfig
    from ceralab.model import (ModelConfig, adapter_shape, build_model,
                               collect_latents, forward, inject)
    from ceralab.tasks import Dataset, trajectory_sequences
    from ceralab.trainer import TrainConfig, train_adapter

    halves = {name for name, obj in vars(T).items()
              if inspect.isfunction(obj) and obj.__module__ == T.__name__
              and not name.startswith("_")} - {"backward"} - set(TEST_REFERENCES)
    census = set()
    for name in halves:
        monkeypatch.setattr(T, name, lambda *args, _fn=getattr(T, name), _name=name: (
            census.add(_name), _fn(*args))[1])
    train_cfg = TrainConfig(steps=2, batch_size=4)

    def run(model_cfg, placements, train, test):
        bb = build_model(model_cfg, 0)
        for i, (layer, target, cfg) in enumerate(placements):
            inject(bb, layer, target, Adapter.init(
                cfg, *adapter_shape(model_cfg, target), T.RngState(1, i)))
        train_adapter(bb, train, test, train_cfg)
        for which in ("latent_H", "output_delta_D"):
            collect_latents(bb, test.inputs, which)
        forward(bb, test.inputs)

    reg = ModelConfig(d_model=8, n_heads=2, d_head=4, n_layers=1, vocab_size=3,
                      max_seq_len=4, v_out_dim=4, mode="regressor")
    rng = T.RngState(2)
    rows = Dataset(inputs=rng.normal((6, 8)), targets=rng.normal((6, 3)))
    for target, cfg in (
            ("Wv", AdapterConfig(kind="lora", r=2, alpha=4)),  # scale 2
            ("Wv", AdapterConfig(kind="cera", r=2)),
            ("Wv", AdapterConfig(kind="cera", r=2, activation="relu")),
            ("attn_block", AdapterConfig(kind="parallel_module", r=2))):
        run(reg, [(0, target, cfg)], rows, rows)
    lm = ModelConfig(d_model=8, n_heads=2, d_head=4, n_layers=1, vocab_size=12,
                     max_seq_len=48, v_out_dim=8)
    train, test = trajectory_sequences(n_steps=5, count=5, seed=3)
    run(lm, [(0, t, AdapterConfig(kind="cera", r=2)) for t in ("Wq", "Wv")],
        train, test)

    never = sorted(halves - census)
    assert never == [], f"tensor halves the program never calls: {never}"
    # each op is a forward half and a backward half, and the two-matrix
    # map's hidden rows are what capture reads
    assert halves == {"mlp_hidden", "mlp_forward", "mlp_backward",
                      "causal_attention_forward", "causal_attention_backward",
                      "layer_norm_forward", "layer_norm_backward",
                      "cross_entropy_forward", "cross_entropy_backward"}
    # the tape and its ops are gone
    gone = {"dropout", "mul", "relu", "silu", "reshape", "split_heads", "merge_heads",
            "adapter_delta", "linear", "add", "mlp", "causal_attention", "layer_norm",
            "cross_entropy_rows", "_node", "_no_tape", "zero_grads", "gather_grads"}
    assert not any(hasattr(T, name) or hasattr(trainer, name) for name in gone)


def test_tensor_is_only_the_holder_forward_returns():
    # weights and adapter matrices are plain arrays: `Tensor` is made only
    # in `model.forward`, defines nothing but `__init__` and its `data`
    # slot, and the package reads `.data` of nothing but a Tensor being made
    # and the optimizer's flat buffer
    makers, reads = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Tensor":
                    makers.add((path.stem, getattr(top, "name", None)))
                elif isinstance(node, ast.Attribute) and node.attr == "data":
                    reads.add((path.stem, ast.unparse(node)))
            if isinstance(top, ast.ClassDef) and top.name == "Tensor":
                body = [n for n in top.body if not isinstance(n, ast.Expr)]  # docstring
                assert [ast.unparse(n) for n in body[:1]] == ["__slots__ = ('data',)"]
                assert [getattr(n, "name", None) for n in body[1:]] == ["__init__"]
    assert makers == {("model", "forward")}
    assert reads == {("tensor", "self.data"), ("trainer", "state.data")}


def test_weights_and_adapter_matrices_are_plain_arrays():
    from ceralab import trainer
    from ceralab.adapters import Adapter, AdapterConfig
    from ceralab.model import ModelConfig, adapter_shape, build_model, inject
    from ceralab.tensor import RngState

    cfg = ModelConfig(d_model=8, n_heads=2, d_head=4, n_layers=1, vocab_size=12,
                      max_seq_len=4, v_out_dim=4)
    bb = build_model(cfg, 0)
    named = bb.frozen_tensors()
    assert len(named) == 15
    assert all(type(w) is np.ndarray and w.dtype == np.float64 for _, w in named)
    adapter = Adapter.init(AdapterConfig(kind="cera", r=2), *adapter_shape(cfg, "Wv"),
                           RngState(1))
    inject(bb, 0, "Wv", adapter)
    plain = lambda: all(type(w) is np.ndarray and w.dtype == np.float64
                        for w in (adapter.state.w_up, adapter.state.w_down))
    assert plain()
    trainer.adamw_state([adapter])  # rebinds them to views of its buffer
    assert plain()


# defaulted parameters that only tests set, each with the reason tests need it
TEST_SET_DEFAULTS = {
    ("svd_values", "with_vectors"): "criterion 06 checks the thin SVD reconstructs its input",
    ("auc90", "exponent"): "criterion 06 checks AUC-90 of the squared spectrum",
}


def defaulted_parameters() -> dict[tuple[str, str], tuple[int | None, str]]:
    """(callee name, parameter) -> (position among the arguments a call
    passes, or None if keyword-only; defining module), for every parameter
    with a default of every function and method in the package. A call to a
    class sets its `__init__`'s parameters."""
    found = {}

    def add(fn: ast.FunctionDef, callee: str, module: str, method: bool):
        args = fn.args
        positional = args.posonlyargs + args.args
        if method:
            positional = positional[1:]
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            found[(callee, arg.arg)] = (i, module)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found[(callee, arg.arg)] = (None, module)

    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                add(node, node.name, path.stem, False)
            elif isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef):
                        static = any(getattr(d, "id", None) == "staticmethod"
                                     for d in member.decorator_list)
                        callee = node.name if member.name == "__init__" else member.name
                        add(member, callee, path.stem, not static)
    return found


def program_calls() -> dict[str, list[ast.Call]]:
    """Every call the program makes (package, benchmark and scripts), by the
    name it calls: a plain name, or the attribute of an attribute call."""
    calls: dict[str, list[ast.Call]] = {}
    paths = sorted(PACKAGE.glob("*.py"))
    paths += [p for folder in ("bench", "scripts")
              for p in sorted((ROOT / folder).glob("*.py"))]
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name:
                    calls.setdefault(name, []).append(node)
    return calls


def sets(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether `call` passes the parameter: by keyword, by position, or
    through a starred argument that may hold it."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred)
                                            for a in call.args)


def test_every_defaulted_parameter_is_set_by_the_program():
    # a default that no caller overrides is a constant in disguise
    calls = program_calls()
    unset = sorted(
        f"{module}.{callee}({name})"
        for (callee, name), (position, module) in defaulted_parameters().items()
        if callee not in TEST_REFERENCES and (callee, name) not in TEST_SET_DEFAULTS
        and not any(sets(call, position, name) for call in calls.get(callee, ())))
    assert unset == [], f"defaulted parameters no program call sets: {unset}"


def test_test_set_defaults_are_current():
    # each listed parameter exists, and still no program call sets it
    defaults, calls = defaulted_parameters(), program_calls()
    for callee, name in TEST_SET_DEFAULTS:
        assert (callee, name) in defaults, f"{callee}({name}) is no longer defaulted"
        position, _ = defaults[(callee, name)]
        assert not any(sets(call, position, name) for call in calls.get(callee, ())), \
            f"a program call sets {callee}({name}); drop it from the list"
