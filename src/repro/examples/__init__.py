"""Packaged, wheel-installable examples.

Unlike the repository's top-level ``examples/`` scripts (which need a
checkout), these modules ship inside the ``repro`` package, so CLI
subcommands — ``repro figures`` — import them from any install.

Subsystem contract: renderers print the paper's pinned numbers (Figure 1,
Figure 4, Figure 5) deterministically — they are smoke-tested output, not
illustrative pseudo-code.
"""

from repro.examples.paper_figures import show_figure1, show_figure4, show_figure5

__all__ = ["show_figure1", "show_figure4", "show_figure5"]
