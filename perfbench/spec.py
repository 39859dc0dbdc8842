"""What the benchmark measures: workloads, metrics, layers and run length.

This module is the single source of BENCHMARK.json at the repository root;
run ``python3 perfbench/spec.py`` to rewrite that file after editing here.

The gated metrics are the same on every workload, because every run must
report every gated metric. The workload-specific figures (per-job wall
times, frame percentiles, per-function span times) are printed in the
human-readable report above the result line.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 45

LAYERS = ("cli", "io_formats", "frame_scoring", "state_update",
          "stabilization", "spatial", "geometry", "metrics", "losses",
          "simulate")

WORKLOADS = {
    "stream": "the per-frame online loop (read, score, memory write, filter, "
              "bilateral, back-project); the only path where frame_scoring, "
              "state_update and filter_step are on the latency path",
    "cli": "all eight CLI jobs as subprocesses: the readers (metrics, losses, "
           "io_formats parsers) and the writers (io_formats writers, batch "
           "stabilization and spatial, the CLI's own scoring path)",
}

# Each end-to-end metric is defined on every workload. An operation is one
# frame on stream and one CLI job on cli. op_latency_ms is the median frame
# on stream and the median pass over the jobs divided by the number of jobs
# on cli; ops_per_s is operations done over the time spent in them. The time
# bounds are wide, and the runs long, because the shared 2-CPU machine they
# were set on slowed every job of a run together by up to 30% in phases of a
# few minutes.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "op_latency_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

PER_LAYER = (
    [{"name": f"{layer}.self_s", "unit": "s", "better": "lower"}
     for layer in LAYERS]
    + [{"name": f"{layer}.calls", "unit": "count", "better": "lower"}
       for layer in LAYERS]
    + [
        {"name": "cli.import_s", "unit": "s", "better": "lower"},
        {"name": "deps.import_s", "unit": "s", "better": "lower"},
        {"name": "io_formats.read_bytes", "unit": "bytes", "better": "lower"},
        {"name": "io_formats.read_mb_per_s", "unit": "MB/s",
         "better": "higher"},
        {"name": "io_formats.write_bytes", "unit": "bytes", "better": "lower"},
        {"name": "trace.overhead_ratio", "unit": "ratio", "better": "lower"},
        {"name": "trace.unaccounted_s", "unit": "s", "better": "lower"},
        {"name": "trace.spans", "unit": "count", "better": "lower"},
    ]
)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


if __name__ == "__main__":
    out = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    out.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    print(f"wrote {out}")
