"""Performance benchmark for modalign; run it with `python3 perfbench/run.py`."""
