"""The phase-1 explorer as it stood at commit dff99c7, frozen.

``explore.py``, ``memo.py`` and ``rules/`` are verbatim copies of
``src/repro/optimizer/`` at that commit; the only edit is that imports
leaving this package (``...expr``, ``...plan``, ``...datatypes``) are
absolute (``repro.expr`` …).  Test-only: the differential test
(``tests/optimizer/test_explore_differential.py``) explores every query
with both this explorer and the live one and requires identical memos
and plans.  Never import this from ``src/``, and never "fix" it.
"""
