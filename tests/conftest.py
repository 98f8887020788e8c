from hypothesis import settings

# The same examples on every run: property tests gate tier-1, so a result
# must not depend on the run, nor a time bound on the machine's load.
settings.register_profile("phasefit", derandomize=True, deadline=None)
settings.load_profile("phasefit")
