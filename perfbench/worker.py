"""The benchmark's helper process, and the client that drives it.

The helper computes the training-mode reference logits and times the extra
set-ups and exports, so that neither the forward's large intermediates nor a second
model count in the measuring process's peak RSS. It is a plain child
process started with ``subprocess``: requests and replies are pickled over
its stdin and stdout, it exits when its stdin closes, and ``Worker.close``
waits for it on every path out of the run. (``multiprocessing`` is not used
because its spawn context starts a resource-tracker process that outlives
the run.)

    python3 perfbench/worker.py <seed>    # started by Worker, not by hand
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# How long close() waits for the helper to exit after its stdin closes.
EXIT_WAIT_S = 30


class WorkerError(RuntimeError):
    """The helper process failed a request or exited."""


class Worker:
    """One helper process; use as a context manager so it is always reaped."""

    def __init__(self, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(seed)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=os.getcwd(),
        )

    def call(self, op: str, *args):
        try:
            pickle.dump((op, args), self.proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
            self.proc.stdin.flush()
            status, value = pickle.load(self.proc.stdout)
        except (BrokenPipeError, EOFError) as exc:
            raise WorkerError(f"helper process exited (code {self.proc.poll()}) during {op!r}") from exc
        if status != "ok":
            raise WorkerError(f"helper process failed {op!r}:\n{value}")
        return value

    def reference(self, ids):
        """Training-mode forward logits for a (b, s) batch of ids."""
        return self.call("reference", ids)

    def set_up(self, workload: str, seed: int, path: str) -> dict:
        """One full set-up in the helper; returns its phase seconds."""
        return self.call("set_up", workload, seed, path)

    def export(self, path: str) -> dict:
        """One export of the helper's model; returns its phase seconds."""
        return self.call("export", path)

    def close(self) -> None:
        """Close the helper's stdin and wait for it; kill it if it does not exit."""
        proc = self.proc
        for stream in (proc.stdin, proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        try:
            proc.wait(timeout=EXIT_WAIT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve(seed: int) -> None:
    """Answer pickled requests on stdin until it closes."""
    sys.path.insert(0, str(SRC))
    import workloads
    from molkv import model

    params = model.init_model(workloads.CONFIG, seed=seed)

    def reference(ids):
        return model.forward(params, ids).data

    def set_up(workload, seed, path):
        fx, phases = workloads.set_up(workload, seed, path)
        fx.reader.close()
        os.remove(path)
        return phases

    def export(path):
        _, reader, phases = workloads.export(params, path)
        reader.close()
        os.remove(path)
        return phases

    ops = {"reference": reference, "set_up": set_up, "export": export}
    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # stray prints must not corrupt the replies
    while True:
        try:
            op, args = pickle.load(stdin)
        except EOFError:
            return
        try:
            reply = ("ok", ops[op](*args))
        except Exception:  # reported to the client, which fails the run
            reply = ("error", traceback.format_exc())
        pickle.dump(reply, stdout, protocol=pickle.HIGHEST_PROTOCOL)
        stdout.flush()


if __name__ == "__main__":
    serve(int(sys.argv[1]))
