import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


@pytest.fixture(scope="session")
def corpus_dir() -> pathlib.Path:
    return CORPUS


def corpus_text(name: str) -> str:
    return (CORPUS / name).read_text(encoding="utf-8")


def assert_ownership_agrees(machine) -> None:
    """Every (cid, end) a live process binds is owned by that process in
    the channel table and bound by no other process, and every end of a
    live channel resolves to a live process or a service (any owner that
    is not a pid)."""
    holder: dict[tuple[int, int], int] = {}
    for pid, p in machine.processes.items():
        for name, (cid, end) in p.chan_env.items():
            assert holder.setdefault((cid, end), pid) == pid, \
                f"#{cid}.{end} is bound by pids {holder[cid, end]} and {pid}"
            assert machine.channels[cid].ends[end].owner == pid, \
                f"pid {pid} binds {name!r} to #{cid}.{end}, which it " \
                f"does not own"
    for cid, ch in machine.channels.items():
        for end, e in enumerate(ch.ends):
            owner = machine.resolve_owner(e.owner)
            if ch.live and (owner is None or isinstance(owner, int)):
                assert owner in machine.processes, \
                    f"live #{cid}.{end} resolves to {owner!r}"


def run_watched(machine, max_steps: int = 50_000) -> None:
    """Step `machine` until no process can move, asserting the topology
    invariants and ownership agreement before every step."""
    for _ in range(max_steps):
        machine.assert_invariants()
        assert_ownership_agrees(machine)
        p = machine.pick()
        if p is None:
            return
        machine.step(p)
    raise AssertionError(f"no end after {max_steps} steps")
