"""roundbench: the cost of one discovery round, end to end and layer by
layer, on both runtimes.  See ``README.md`` in this directory."""
