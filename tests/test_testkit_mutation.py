"""Mutation smoke tests: prove the differential net catches real defects.

Each test injects one deliberate bug into the engine (never into the
oracle or the generator) and asserts the harness flags it — with a
replayable artifact — then that the flag disappears once the defect is
removed.  The fuzz seed is chosen so the first generated spec has more
states than the truncated fingerprint space, making collisions certain
rather than probabilistic.

Parallel-worker cells are excluded: monkeypatched defects do not follow
``fork`` semantics reliably across checkpoint/resume boundaries, and the
serial cells alone exercise every mutated code path.
"""

from __future__ import annotations

from repro.core.engine import ExplorationEngine, FIFOFrontier
from repro.core.state import fingerprint as real_fingerprint
from repro.persist.rundir import read_json
from repro.testkit import GenParams, generate_spec, replay_artifact, run_differential

#: First spec of this sweep seed: 24 reachable states (> the 16-value
#: truncated fingerprint space below) and a planted depth-3 violation.
MUTATION_SEED = "mutation"


def test_control_sweep_is_clean():
    report = run_differential(1, seed=MUTATION_SEED, parallel=False)
    assert report.ok, report.describe()


def test_truncated_fingerprint_is_flagged(monkeypatch, tmp_path):
    # Defect: collapse the 64-bit fingerprint to 4 bits.  Colliding
    # states merge in every store, so the census undercounts (and trace
    # reconstruction may fail outright); both count as disagreements.
    def truncated(state):
        return real_fingerprint(state) & 0xF

    monkeypatch.setattr("repro.core.explorer.fingerprint", truncated)
    report = run_differential(
        1, seed=MUTATION_SEED, out_dir=tmp_path, parallel=False
    )
    assert not report.ok
    assert report.artifacts, "a disagreement must be saved as a replayable artifact"
    assert any(d.field in ("states", "error") for d in report.findings)

    # Remove the defect: the saved artifact regenerates the identical
    # spec + config, and the healthy engine no longer disagrees.
    monkeypatch.undo()
    original, fresh = replay_artifact(report.artifacts[0])
    assert original.spec_seed == f"{MUTATION_SEED}:0"
    assert fresh == [], [d.describe() for d in fresh]


def test_suppressed_state_invariants_are_flagged(monkeypatch):
    # Defect: the checker silently skips state-invariant evaluation, so
    # every violation-phase cell runs to exhaustion instead of stopping
    # on the planted counterexample.
    monkeypatch.setattr(
        "repro.core.engine.StepChecker.check_state",
        lambda self, state, pre_fp, transition, changed=None: None,
    )
    report = run_differential(1, seed=MUTATION_SEED, parallel=False)
    assert not report.ok
    flagged = [d for d in report.findings if d.field == "stop_reason"]
    assert flagged and all(d.config.phase == "violation" for d in flagged)

    monkeypatch.undo()
    clean = run_differential(1, seed=MUTATION_SEED, parallel=False)
    assert clean.ok, clean.describe()


def test_verdict_key_missing_a_declared_variable_is_flagged(monkeypatch, tmp_path):
    # Defect: the verdict memo keys the planted invariant on ``glob``
    # alone, dropping the declared ``locals`` — the first state checked
    # (clean) answers for every later state with the same ``glob``, the
    # planted one included, so violation cells run to exhaustion.  The
    # sampled re-evaluation (every 64th hit) never fires on 24 states.
    from repro.core import compile as compile_module

    real_names = compile_module._read_names
    monkeypatch.setattr(
        compile_module,
        "_read_names",
        lambda reads: tuple(name for name in real_names(reads) if name != "locals"),
    )
    report = run_differential(
        1, seed=MUTATION_SEED, out_dir=tmp_path, parallel=False
    )
    assert not report.ok
    assert report.artifacts, "a disagreement must be saved as a replayable artifact"
    flagged = {d.config.name for d in report.findings}
    assert "violation/serial-memory" in flagged
    assert all(d.config.phase == "violation" for d in report.findings)
    # The engine over the raw spec keeps no memo: under the same defect
    # it still stops at the planted violation.
    raw = read_json(report.artifacts[0])
    generated = generate_spec(raw["spec_seed"], GenParams.from_dict(raw["params"]))
    reference = ExplorationEngine(generated.spec(), FIFOFrontier()).run()
    assert reference.violation.depth == generated.planted.depth

    monkeypatch.undo()
    original, fresh = replay_artifact(report.artifacts[0])
    assert original.spec_seed == f"{MUTATION_SEED}:0"
    assert fresh == [], [d.describe() for d in fresh]
