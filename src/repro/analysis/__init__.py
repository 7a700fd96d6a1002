"""Analysis utilities: the Figure 4 results map, reachability checks and plain-text reporting.

Nothing is re-exported here: the campaign path never runs these modules, so
callers import :mod:`repro.analysis.results_map`,
:mod:`repro.analysis.reporting` and :mod:`repro.analysis.reachability` by
module path.
"""
