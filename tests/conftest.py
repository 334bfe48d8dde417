from hypothesis import settings

# Property tests draw the same examples on every run and never fail on time:
# wall-clock deadlines flake when the machine's speed changes.
settings.register_profile("eppack", derandomize=True, deadline=None, database=None)
settings.load_profile("eppack")
