import javax.websocket.OnClose;
import javax.websocket.OnMessage;
import javax.websocket.OnOpen;
import javax.websocket.Session;
import javax.websocket.server.ServerEndpoint;

@ServerEndpoint("/chat")
class K25 {
    @OnOpen
    void opened(Session session) {
    }

    @OnMessage
    void received(String message, Session session) throws Exception {
        session.getBasicRemote().sendText(message);
    }

    @OnClose
    void closed(Session session) {
    }
}
