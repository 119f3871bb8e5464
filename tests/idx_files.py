"""Writing IDX files for the tests: fedsim itself only reads them."""
import struct

import numpy as np


def write_idx(path, magic: int, dims: tuple[int, ...], payload) -> None:
    """Inverse of fedsim.data.read_idx; byte-exact round trip for valid
    files. The header is written as given, so tests can build files whose
    sizes disagree with their payload."""
    data = np.asarray(payload, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">I", magic))
        fh.write(struct.pack(f">{len(dims)}I", *dims))
        fh.write(data.tobytes())
