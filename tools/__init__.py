"""Developer tools for the CBES reproduction; not part of the ``repro`` package."""
