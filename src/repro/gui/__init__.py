"""Headless visualization + operator console (the GUI substitute)."""

from .ascii_view import render_frame, render_nodes, render_scene
from .console import PoEmConsole
from .plot import ascii_plot
from .svg import frame_to_svg

__all__ = [
    "render_scene",
    "render_nodes",
    "render_frame",
    "frame_to_svg",
    "PoEmConsole",
    "ascii_plot",
]
