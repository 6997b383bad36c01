"""Attribution tables: function rows and allocation rows.

The span table lives with the span schema (``tests/obs/test_spans.py``).
"""

from __future__ import annotations

from repro.prof.attribution import function_table


class TestFunctionTable:
    def test_rows_from_pstats_mapping(self):
        stats = {
            ("/x/mod.py", 10, "hot"): (3, 3, 0.9, 1.2, {}),
            ("/x/mod.py", 20, "cool"): (1, 1, 0.1, 0.1, {}),
        }
        rows = function_table(stats, top=10)
        assert rows[0]["function"] == "mod.py:10:hot"
        assert rows[0]["calls"] == 3
        assert rows[0]["self_s"] == 0.9
        assert rows[0]["cum_s"] == 1.2

    def test_top_truncates(self):
        stats = {
            ("/x/mod.py", i, f"f{i}"): (1, 1, float(i), float(i), {})
            for i in range(30)
        }
        assert len(function_table(stats, top=5)) == 5
