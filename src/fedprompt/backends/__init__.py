"""Language-model backends: remote HTTP, scripted mock, n-gram oracle."""
