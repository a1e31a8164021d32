// Test-only MessageHandler decorator that puts every frame of an in-process
// run through the wire codec. InProcTransport hands Messages across without
// encoding them, so a whole-pager test over it no longer covers the wire
// format by accident. Wrapping the server in this handler restores that
// coverage where it is wanted: each request and each reply is encoded,
// decoded, and checked to come back equal, and the decoded copy is what the
// server (or the client) then sees.
//
// Not thread-safe: meant for InProcTransport, which calls Handle from the
// client's thread only.

#ifndef TESTS_WIRE_CHECKING_HANDLER_H_
#define TESTS_WIRE_CHECKING_HANDLER_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "src/proto/wire.h"
#include "src/transport/transport.h"

namespace rmp {

class WireCheckingHandler final : public MessageHandler {
 public:
  // `inner` must outlive this handler.
  explicit WireCheckingHandler(MessageHandler* inner) : inner_(inner) {}

  Message Handle(const Message& request) override {
    const Message decoded_request = RoundTrip(request);
    return RoundTrip(inner_->Handle(decoded_request));
  }

  // Frames checked so far (requests plus replies) and the types among them.
  uint64_t frames() const { return frames_; }
  const std::set<MessageType>& types() const { return types_; }

 private:
  Message RoundTrip(const Message& message) {
    ++frames_;
    types_.insert(message.type);
    const std::vector<uint8_t> bytes = Encode(message);
    EXPECT_EQ(bytes.size(), EncodedSize(message)) << MessageTypeName(message.type);
    Result<Message> decoded = Decode(bytes);
    if (!decoded.ok()) {
      ADD_FAILURE() << MessageTypeName(message.type)
                    << " does not decode: " << decoded.status().ToString();
      return message;
    }
    EXPECT_TRUE(*decoded == message) << MessageTypeName(message.type)
                                     << " changed across the wire";
    return std::move(*decoded);
  }

  MessageHandler* inner_;
  uint64_t frames_ = 0;
  std::set<MessageType> types_;
};

}  // namespace rmp

#endif  // TESTS_WIRE_CHECKING_HANDLER_H_
