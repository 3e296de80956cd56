"""The verifier stands apart from the writer.

``repro.verify`` and every module it imports — walked by AST, package
``__init__``\\ s aside — hold no module that writes evidence: a party
checking a proof runs none of the code that made it.  And the verifier
is the only home of its proof types and checks.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

WRITERS = (
    "repro.chain.blockchain", "repro.chain.anchoring",
    "repro.persist.durable", "repro.persist.stores",
    "repro.provenance.anchor", "repro.provenance.query",
    "repro.sharding", "repro.sync", "repro.gateway", "repro.ingest",
    "repro.exec",
)

VERIFIER_NAMES = {
    "tx_in_header", "commits_root", "verify_anchored", "AnchoredProof",
    "shard_block_leaf", "ShardBlockProof", "BeaconLightBundle",
    "FederatedProof", "LightClient", "typed", "bundle_to_mapping",
    "_proof_from_mapping", "bundle_from_mapping",
}


def _module_file(name: str) -> Path | None:
    """The ``.py`` file of module ``name``; ``None`` for a package (its
    ``__init__`` is not walked) or a module outside ``src/``."""
    path = SRC.joinpath(*name.split(".")).with_suffix(".py")
    return path if path.is_file() else None


def _imported(name: str, path: Path):
    """Every module name an import statement of ``path`` may load —
    top level or inside a function — including ``pkg.name`` for each
    ``from pkg import name`` (``name`` may be a submodule)."""
    package = name.rpartition(".")[0].split(".")
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = ".".join(package[:len(package) - node.level + 1])
                module = f"{base}.{node.module}" if node.module else base
            else:
                module = node.module
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def import_closure(root: str) -> set[str]:
    seen: set[str] = set()
    todo = [root]
    while todo:
        name = todo.pop()
        path = _module_file(name)
        if name in seen or path is None:
            continue
        seen.add(name)
        todo.extend(_imported(name, path))
    return seen


def _writers_in(modules: set[str]) -> list[str]:
    return sorted(m for m in modules
                  if any(m == w or m.startswith(w + ".") for w in WRITERS))


class TestImportClosure:
    def test_the_verifier_imports_no_writer(self):
        closure = import_closure("repro.verify")
        # The walk reaches what the verifier does read...
        assert {"repro.chain.block", "repro.chain.transaction",
                "repro.crypto.merkle", "repro.persist.codec",
                "repro.provenance.records"} <= closure
        # ...and nothing that writes.
        assert _writers_in(closure) == []

    def test_the_walk_sees_a_writer_when_there_is_one(self):
        # The snapshot client opens a durable store: the same walk names
        # it, so an empty list above is not a blind walk.
        assert "repro.persist.durable" in _writers_in(
            import_closure("repro.sync.client"))


def _definitions(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_only_the_verifier_defines_its_names():
    homes: dict[str, list[str]] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        for name in _definitions(path) & VERIFIER_NAMES:
            homes.setdefault(name, []).append(str(path.relative_to(SRC)))
    assert homes == {name: ["repro/verify.py"] for name in VERIFIER_NAMES}
