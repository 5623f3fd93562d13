"""drmtestbed benchmark: workloads, span recorder and synthetic catalog."""
