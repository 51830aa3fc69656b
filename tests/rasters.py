"""The dense depth raster of a pixel table, for tests that check rows against
image-grid code. crossreg itself builds no image-sized depth array.
"""

import numpy as np

from crossreg.normals import DepthMap
from crossreg.synth import PixelTable


def depth_raster(table: PixelTable) -> DepthMap:
    """The table as an (H, W) DepthMap, NaN and invalid off its rows."""
    shape = (table.height, table.width)
    us, vs = table.pixels.astype(np.int64).T
    values, valid = np.full(shape, np.nan), np.zeros(shape, dtype=bool)
    values[vs, us] = table.depths
    valid[vs, us] = True
    return DepthMap(values, valid)
