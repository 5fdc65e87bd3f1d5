"""Score-based diffusion on spheres, rotation groups, and discrete point sets."""

__version__ = "0.1.0"
