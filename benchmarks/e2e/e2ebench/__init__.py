"""The repo's one end-to-end benchmark (see ../README.md).

Drives the public ``repro`` API only; every input is generated here from
``--seed`` and the program sees nothing but the generated query sets and
stamped streams.
"""
