"""Run one untraced benchmark workload of a checkout in this process, with
the cyclic collector at its default thresholds or at tight ones:

    python3 perf/derived-verdicts/gc_modes.py CHECKOUT WORKLOAD SECONDS default|tight

``tight`` sets ``gc.set_threshold(100, 2, 2)``, so full collections come
often and the peak RSS depends less on when they happen.
"""
import gc
import runpy
import sys

root, workload, seconds, mode = sys.argv[1:5]
if mode == "tight":
    gc.set_threshold(100, 2, 2)
sys.path.insert(0, f"{root}/bench")
sys.argv = [f"{root}/bench/run.py", "--workload", workload, "--trace", "0", "--seconds", seconds]
runpy.run_path(f"{root}/bench/run.py", run_name="__main__")
