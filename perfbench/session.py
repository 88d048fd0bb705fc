"""Ray session lifetime for one benchmark run: a fresh local session with
one CPU per usable core, workers that import the library from this
checkout, and nothing left running afterwards."""

from __future__ import annotations

import logging
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")
NUM_CPUS = len(os.sched_getaffinity(0))
OBJECT_STORE_BYTES = 512 << 20


def import_psutil():
    """psutil ships inside Ray's vendored packages, not on its own."""
    try:
        import psutil  # noqa: F401
    except ImportError:
        import ray

        sys.path.append(os.path.join(os.path.dirname(ray.__file__), "thirdparty_files"))
        import psutil  # noqa: F401


def stop_stale_ray() -> None:
    """Stop Ray processes left behind by an earlier run that was killed."""
    cli = shutil.which("ray") or os.path.join(os.path.dirname(sys.executable), "ray")
    if os.path.exists(cli):
        subprocess.run([cli, "stop", "--force"], capture_output=True, timeout=60,
                       check=False)
    shutil.rmtree(os.path.join(WORK, "ray"), ignore_errors=True)  # old session logs


def start_ray() -> None:
    import ray
    from ray.data import DataContext

    kwargs = {}
    temp = os.path.join(WORK, "ray")
    # Ray puts unix sockets under its temp dir; their paths must stay under
    # 108 bytes, so a deep checkout keeps Ray's default temp dir
    if len(temp) <= 40:
        kwargs["_temp_dir"] = temp
    # workers inherit this environment: they import the library from this
    # checkout whatever the cwd (a runtime_env would do the same, but its
    # workers cannot come from the prestarted pool and start seconds later)
    paths = [ROOT, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
    ray.init(
        address="local", num_cpus=NUM_CPUS, include_dashboard=False,
        logging_level="ERROR", object_store_memory=OBJECT_STORE_BYTES, **kwargs,
    )
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def stop_ray() -> None:
    import psutil
    import ray

    if ray.is_initialized():
        ray.shutdown()
    # anything Ray left running is ours to stop
    children = psutil.Process().children(recursive=True)
    for p in children:
        try:
            p.kill()
        except psutil.NoSuchProcess:
            pass
    psutil.wait_procs(children, timeout=10)


def warm_workers(modules: tuple[str, ...]) -> None:
    """Start one worker per CPU and import ``modules`` in each, so the
    first timed operation does not pay for process start and imports."""
    import importlib

    import ray

    @ray.remote(num_cpus=1)
    def load(names):
        for n in names:
            importlib.import_module(n)

    ray.get([load.remote(modules) for _ in range(2 * NUM_CPUS)])
