"""Read Prometheus text exposition back into ``{name: [(labels, value)]}``.

Enough of the format for the tests' checks on what ``Op.METRICS``
renders: ``# `` lines are skipped, label values are unescaped.
"""

import re

_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse(text: str) -> dict:
    series: dict = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, value = line.rsplit(" ", 1)
        name, _, label_text = head.partition("{")
        labels = {key: re.sub(r"\\(.)", r"\1", raw) for key, raw in _LABEL.findall(label_text)}
        series.setdefault(name, []).append((labels, float(value)))
    return series
