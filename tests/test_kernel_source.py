"""The shipped C kernel must be generated from the current .pyx.

setup.py compiles src/pathconn/_kernel.c, not the .pyx, so an edit to
_kernel.pyx takes effect only once the C file is regenerated (command in
the setup.py docstring).  This pin fails on any .pyx edit until then; after
regenerating, put the new hash here.
"""

import hashlib
from pathlib import Path

import pathconn

PYX_SHA256 = "dd58bea4a8170da7ced55fa3dd7f79f9c4874787e11f09bf0574f079cbb1b793"


def test_kernel_pyx_matches_the_shipped_c():
    src = Path(pathconn.__file__).parent
    digest = hashlib.sha256((src / "_kernel.pyx").read_bytes()).hexdigest()
    assert digest == PYX_SHA256, (
        "_kernel.pyx changed: regenerate _kernel.c with Cython "
        "(see setup.py) and update PYX_SHA256")
    assert (src / "_kernel.c").read_text().startswith("/* Generated by Cython")
