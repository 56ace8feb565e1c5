"""Content substrate: tiles, projection, and the size-vs-quality model.

The paper prepares its content offline: a Unity scene is rendered into
equirectangular panoramas on a 5 cm grid of viewpoints, each panorama
is split into four tiles (Fig. 5), and every tile is encoded by FFmpeg
at six CRF values (Section VI).  This subpackage reproduces that
pipeline parametrically — the actual pixels are irrelevant to the
scheduling problem; what matters is the *geometry* (which tiles a
field of view touches) and the *rate curve* (how tile size grows with
quality, Fig. 1a), both of which are modelled here.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.content.crf": (
            "CRF_BITRATE_DOUBLING", "crf_to_level", "level_to_crf",
            "quality_levels",
        ),
        "repro.content.rate": ("QualityRateCurve", "RateModel"),
        "repro.content.projection": (
            "EquirectangularProjection", "FieldOfView",
            "fov_solid_angle_fraction", "wrap_angle_deg",
        ),
        "repro.content.tiles": ("GridWorld", "TileGrid", "TileKey", "VideoId"),
        "repro.content.database": (
            "ClientTileCache", "ServerTileCache", "TileDatabase",
        ),
        "repro.content.gop": ("GopModel",),
    },
)

__all__ = [
    "CRF_BITRATE_DOUBLING",
    "crf_to_level",
    "level_to_crf",
    "quality_levels",
    "QualityRateCurve",
    "RateModel",
    "EquirectangularProjection",
    "FieldOfView",
    "fov_solid_angle_fraction",
    "wrap_angle_deg",
    "TileGrid",
    "GridWorld",
    "TileKey",
    "VideoId",
    "TileDatabase",
    "ServerTileCache",
    "ClientTileCache",
    "GopModel",
]
