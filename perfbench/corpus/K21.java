import javax.ejb.MessageDriven;
import javax.jms.JMSContext;
import javax.jms.JMSException;
import javax.jms.Message;
import javax.jms.MessageListener;
import javax.jms.TextMessage;

@MessageDriven
class OrderListener implements MessageListener {
    JMSContext jms;

    public void onMessage(Message message) {
        TextMessage text = (TextMessage) message;
        handle(text);
    }

    void handle(TextMessage text) {
    }
}
