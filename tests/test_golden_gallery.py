"""Golden rendering of the pattern gallery.

``repro-hunt gallery`` renders one deployment map per canonical shape
of Figures 3-5 with the classifier's verdict under it.  Its output is
pinned byte-for-byte in ``tests/golden/gallery.txt``, so a change to how
a map is stored or walked cannot move a glyph, a legend entry or a
presence figure unnoticed.

After an intentional rendering change, regenerate with::

    python -m repro.cli gallery > tests/golden/gallery.txt
"""

from __future__ import annotations

from repro.cli import main

from tests.test_golden_reports import GOLDEN_DIR


def test_gallery_matches_golden(capsys):
    assert main(["gallery"]) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / "gallery.txt").read_text()
