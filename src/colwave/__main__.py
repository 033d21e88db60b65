"""``python -m colwave``: the ``colwave`` command without an installed script."""

from .cli import entrypoint

entrypoint()
