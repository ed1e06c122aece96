// A raw string is one literal across all its lines: the call on its
// middle line is text, not code.
const char* const kUsage = R"(
  std::rand() is never called here
)";
