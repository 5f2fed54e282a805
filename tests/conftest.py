from hypothesis import settings

# CI runs tier-1 with --hypothesis-profile=ci: the same examples on every
# run, and a failing one printed with the blob that reproduces it.
settings.register_profile("ci", derandomize=True, print_blob=True)
